"""Where the time of the streaming driver's closed-loop slice goes.

    python jobs/stream_bench.py --label change [--out BENCH_stream.json]

Fixed config: both perfbench streams (``shared_core`` and
``traffic_clusters``) at seed 1, cut into perfbench's micro-batches; the
slice is perfbench's closed-loop sample, ten batches from the middle of
the stream replayed through a fresh ``MicroBatchExecutor``
(``perfbench.stream_replay.closed_loop``). Per stream:

- ``slice_s``: the median wall time of ``RUNS`` slice replays after
  ``WARM`` untimed ones, and ``slice_scaled_s`` the median of the same
  walls scaled to perfbench's reference box speed (``PROBE_REF_S`` over
  the probe around each replay); ``stream_eps`` is the slice's events
  over ``slice_scaled_s``, as perfbench computes it. Every replay's
  counts are checked against one ``run_plan_pandas`` call over the
  slice's events.
- ``passes``: each ``run_plan_pandas`` call the driver makes in a replay
  (the closing passes, then ``results()``): the events it held, the
  (event, window) rows it evaluated, its partitions and its median wall
  time over ``RUNS`` more replays.

The passes are observed by swapping the driver's ``run_plan_pandas`` for
a timed call of itself. A driver whose passes report no ``rows`` figure
evaluates every window of its held events, so their rows are counted
with ``window_rows``, outside the timed call.

Measure two versions of the code in two processes (this script copied
into each checkout), each writing its own ``--label`` into the one JSON
file.
"""
from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from pathlib import Path
from statistics import median

ROOT = Path(__file__).resolve().parents[1]
# Run straight from a checkout: its own sources and its perfbench.
sys.path[0:0] = [str(ROOT / "src"), str(ROOT)]

import pandas as pd  # noqa: E402

from perfbench.checks import canon, same  # noqa: E402
from perfbench.prepare import PROBE_REF_S, probe  # noqa: E402
from perfbench.stream_replay import closed_loop  # noqa: E402
from repro.runtime import streaming  # noqa: E402
from repro.runtime.windows import window_rows  # noqa: E402

WORKLOADS = ("shared_core", "traffic_clusters")
SEED, WARM, RUNS = 1, 3, 21


def _passes(workload, batches: list[pd.DataFrame]) -> list[dict]:
    """One replay's driver passes: held events, rows, partitions, wall."""
    seen: list[dict] = []
    original = streaming.run_plan_pandas

    def timed(events, *args, **kwargs):
        t0 = time.perf_counter()
        out = original(events, *args, **kwargs)
        wall = time.perf_counter() - t0
        rows = out[1].get("rows")
        if rows is None:
            q0 = workload[0]
            t = events["time"].to_numpy()
            rows = len(window_rows(t, within=q0.within, slide=q0.slide)[0])
        seen.append(
            {
                "held": len(events),
                "rows": rows,
                "partitions": out[1]["partitions"],
                "wall_s": wall,
            }
        )
        return out

    streaming.run_plan_pandas = timed
    try:
        closed_loop(workload, batches)
    finally:
        streaming.run_plan_pandas = original
    return seen


def measure(workload, batches: list[pd.DataFrame], runs: int, warm: int) -> dict:
    """The slice's median replay time over ``runs`` replays after
    ``warm`` untimed ones, and its passes' figures (median walls)."""
    want = canon(streaming.run_plan_pandas(pd.concat(batches), workload, None)[0])
    for _ in range(warm):
        closed_loop(workload, batches)
    walls, scaled = [], []
    for _ in range(runs):
        gc.collect()
        before = probe()
        t0 = time.perf_counter()
        got = closed_loop(workload, batches)
        wall = time.perf_counter() - t0
        walls.append(wall)
        scaled.append(wall * PROBE_REF_S / ((before + probe()) / 2))
        if not same(canon(got), want):
            raise RuntimeError("the driver's counts differ from run_plan_pandas")
    replays = [_passes(workload, batches) for _ in range(runs)]
    passes = [
        {**first, "wall_s": median(r[i]["wall_s"] for r in replays)}
        for i, first in enumerate(replays[0])
    ]
    events = sum(len(b) for b in batches)
    return {
        "events": events,
        "batches": len(batches),
        "runs": runs,
        "slice_s": median(walls),
        "slice_scaled_s": median(scaled),
        "stream_eps": events / median(scaled),
        "passes": passes,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the JSON file")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_stream.json")
    args = ap.parse_args()

    from perfbench.inputs import N_BATCHES, SLICE
    from perfbench.inputs import WORKLOADS as SPECS
    from perfbench.inputs import make_inputs

    result = {
        "config": {
            "workloads": list(WORKLOADS),
            "seed": SEED,
            "batches": N_BATCHES,
            "slice": [SLICE.start, SLICE.stop],
            "warm": WARM,
            "runs": RUNS,
            "probe_ref_s": PROBE_REF_S,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
    }
    for name in WORKLOADS:
        inputs = make_inputs(SPECS[name], SEED)
        batches = list(streaming.time_chunks(inputs.events, N_BATCHES))[SLICE]
        result[name] = measure(inputs.workload, batches, RUNS, WARM)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[args.label] = result
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({args.label: result}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
