"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload shared_core --seed 1 --seconds 22 --trace 0

Run from the repository root. ``--trace 0`` measures the end-to-end
metrics with tracing off; ``--trace 1`` measures the per-layer metrics
(see ``perfbench/README.md``). The metric names and units are those
declared in ``BENCHMARK.json``. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and the raw samples. The exit
code is 1 when any output check failed, 2 on bad usage.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import time
from pathlib import Path


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "repro").is_dir() or not (root / "BENCHMARK.json").is_file():
        print("perfbench: run from the repository root (src/repro and "
              "BENCHMARK.json must be there)", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text())
    # Import the checkout's own sources, here and in Spark's Python workers.
    sys.path[0:1] = [str(src), str(root)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    )

    from perfbench import prepare, spark_session, traced, untraced
    from perfbench.checks import Tally, oracle_check
    from perfbench.inputs import WORKLOADS

    spec = WORKLOADS.get(args.workload)
    if spec is None:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    state = root / ".perfbench"
    scratch = state / f"run-{os.getpid()}"
    load_before = os.getloadavg()
    phases = {}
    t = time.perf_counter()

    def phase(name: str) -> None:
        nonlocal t
        now = time.perf_counter()
        phases[name] = now - t
        t = now

    spark = spark_session.start(scratch, cores=min(4, os.cpu_count() or 1))
    phase("session_start_s")
    try:
        tally = Tally()
        p = prepare.set_up(spark, spec, args.seed, tally)
        phase("setup_reps_s")
        prepare.warm_up(p)
        phase("warmup_s")
        if args.trace:
            spans = state / "spans" / f"{spec.name}-seed{args.seed}.json"
            values, details = traced.measure(p, args.seconds, spans)
        else:
            values, details = untraced.measure(p, args.seconds)
        phase("measure_s")
        # After the measurement, so that DuckDB's join memory stays out
        # of peak_rss_mb.
        oracle_check(p.inputs, p.plan, tally)
        phase("oracle_s")
        env = {
            "workload": spec.name,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "loadavg_before": load_before,
            "python": platform.python_version(),
            "events": len(p.inputs.events),
            "offered_eps": spec.offered_eps,
            "optimize_reps": spec.optimize_reps,
            "setup_wall_s": [s.wall for s in p.setup],
            "setup_probe_s": [s.probe for s in p.setup],
            **p.warmup,
            **spark_session.environment(spark),
        }
    finally:
        spark_session.stop(spark)
        shutil.rmtree(scratch, ignore_errors=True)
    phase("stop_s")
    env["loadavg_after"] = os.getloadavg()
    env["phases"] = phases

    declared = config["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(values):
        print(f"perfbench: metrics {sorted(set(units) ^ set(values))} differ "
              "from BENCHMARK.json", file=sys.stderr)
        return 2
    for name in units:
        print(f"[perfbench] {name:<30} {values[name]!r:>24} {units[name]}",
              file=sys.stderr)
    correct = tally.failed == 0 and None not in values.values()
    print(json.dumps({"env": env, "details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
