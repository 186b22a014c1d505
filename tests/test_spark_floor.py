"""``jobs/spark_floor.py``, which writes BENCH_spark_floor.json, still
measures: one job per engine on a tiny stream reports every layer."""
import json

from jobs.spark_floor import LAYERS, measure
from repro.core.cost import CostModel
from repro.core.optimizer import sharon_optimizer
from repro.synth_data import event_stream
from repro.workloads import rates_from_stream, traffic_workload


def test_measure_reports_every_layer(spark):
    wl = traffic_workload(within=120, slide=60)
    pdf = event_stream(
        n_events=200, types=sorted(wl.event_types), n_keys=2, duration=300, seed=4
    )
    plan = sharon_optimizer(wl, CostModel(wl, rates_from_stream(pdf, within=120))).plan
    got = json.loads(json.dumps(measure(spark, pdf, wl, plan, jobs=1, warm=0)))
    assert list(got) == ["sharon", "aseq"]
    for split in got.values():
        assert list(split) == ["jobs", *LAYERS]
        assert split["jobs"] == 1
        assert split["wall_s"] > split["driver_s"] > 0
        assert split["map_stage_s"] > 0 and split["kernel_stage_s"] > 0
        assert split["worker_before_udf_s"] > 0 and split["udf_s"] > 0
