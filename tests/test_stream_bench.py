"""``jobs/stream_bench.py``, which writes BENCH_stream.json, still
measures: a short replay reports its time and every pass of the driver."""
import json

from jobs.stream_bench import measure
from repro.runtime.streaming import time_chunks
from repro.runtime.windows import window_rows
from repro.synth_data import event_stream
from repro.workloads import traffic_workload


def test_measure_reports_every_pass():
    wl = traffic_workload(within=120, slide=60)
    pdf = event_stream(
        n_events=300, types=sorted(wl.event_types), n_keys=2, duration=400, seed=6
    )
    batches = list(time_chunks(pdf, 8))
    got = json.loads(json.dumps(measure(wl, batches, runs=1, warm=0)))
    assert got["events"] == len(pdf) and got["batches"] == 8
    assert got["slice_s"] > 0 and got["stream_eps"] > 0
    # Closing passes, then results(): together one row per (event, window).
    assert len(got["passes"]) > 1
    assert sum(p["rows"] for p in got["passes"]) == len(
        window_rows(pdf["time"].to_numpy(), within=120, slide=60)[0]
    )
    assert all(p["held"] > 0 and p["wall_s"] > 0 for p in got["passes"])
