"""``jobs/optimizer_bench.py``, which writes BENCH_optimizer.json, still
measures: a short run reports every phase and the rebuild's counts."""
import json

from jobs.optimizer_bench import PHASES, measure
from repro.core.cost import CostModel, uniform_rates
from repro.core.optimizer import sharon_optimizer
from repro.workloads import clustered_example_workload


def test_measure_reports_phases_and_counts():
    wl = clustered_example_workload(n_clusters=2)
    cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
    got = json.loads(json.dumps(measure(wl, cost, runs=1, warm=0)))
    assert got["optimize_s"] > 0
    assert set(got["phases"]) == set(PHASES)
    assert all(t > 0 for t in got["phases"].values())
    c = got["counts"]
    assert 0 < c["candidates"] <= c["options"]
    assert c["pruned"] > 0 and c["plans"] > 0
    res = sharon_optimizer(wl, cost)
    assert got["score"] == res.score.hex() and got["plan_size"] == len(res.plan)
