"""Where the time of the Sharon optimizer goes, phase by phase.

    python jobs/optimizer_bench.py --label change [--out BENCH_optimizer.json]

Fixed config: the two perfbench workloads (``shared_core`` and
``traffic_clusters``) on the rates of their seed-1 streams, as perfbench
optimizes them, and Fig 15's 35- and 70-query clusters (5 and 10 copies
of the running example) at its uniform rate. Per workload:

- ``optimize_s``: the median wall time of ``RUNS`` calls of
  ``sharon_optimizer`` (``decompose=True``, what perfbench times) after
  ``WARM`` untimed ones, and ``phases`` the median of each phase's time
  (graph, expand, reduce, finder) over the same calls;
- ``counts``: base candidates, expanded options and edges, the vertices
  reduction pruned and took out as conflict-free, and the plans the
  finder generated, from one phase-by-phase rebuild of the call, whose
  plan and score are checked against ``sharon_optimizer``'s;
- ``plan_size`` and ``score`` (``float.hex``) of the plan.

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

from repro.core.ccspan import sharable_patterns  # noqa: E402
from repro.core.cost import CostModel, uniform_rates  # noqa: E402
from repro.core.expand import expand_graph  # noqa: E402
from repro.core.graph import build_graph  # noqa: E402
from repro.core.optimizer import sharon_optimizer  # noqa: E402
from repro.core.planner import (  # noqa: E402
    PlanSearchStats,
    find_optimal_plan_decomposed,
)
from repro.core.reduce import reduce_components  # noqa: E402
from repro.workloads import clustered_example_workload  # noqa: E402

PERFBENCH = ("shared_core", "traffic_clusters")
FIG15_CLUSTERS = (5, 10)  # 35 and 70 queries
FIG15_RATE = 2.0
SEED, WARM, RUNS = 1, 3, 21
PHASES = ("graph", "expand", "reduce", "finder")


def counts(workload, cost, res) -> dict:
    """One phase-by-phase rebuild of ``res``'s call: its figures."""
    g = build_graph(workload, sharable_patterns(workload), cost=cost)
    gx = expand_graph(g, cost)
    red = reduce_components(gx)
    stats = PlanSearchStats()
    plan, score = find_optimal_plan_decomposed(red.graph, red.conflict_free, stats)
    score += sum(gx.weight(v) for v in red.conflict_free)
    keys = sorted(c.key() for c in plan)
    if keys != sorted(c.key() for c in res.plan) or score != res.score:
        raise RuntimeError("the phase-by-phase rebuild differs from sharon_optimizer")
    return {
        "candidates": len(g.vertices),
        "options": len(gx.vertices),
        "edges": gx.n_edges,
        "pruned": len(red.pruned),
        "conflict_free": len(red.conflict_free),
        "plans": stats.total_plans,
    }


def measure(workload, cost, runs: int, warm: int) -> dict:
    """Median call and phase times over ``runs`` calls after ``warm``."""
    for _ in range(warm):
        sharon_optimizer(workload, cost)
    walls, phases = [], []
    for _ in range(runs):
        gc.collect()
        t0 = time.perf_counter()
        res = sharon_optimizer(workload, cost)
        walls.append(time.perf_counter() - t0)
        phases.append(res.phase_latency)
    return {
        "optimize_s": median(walls),
        "phases": {p: median(ph[p] for ph in phases) for p in PHASES},
        "counts": counts(workload, cost, res),
        "plan_size": len(res.plan),
        "score": res.score.hex(),
    }


def workloads():
    """(name, workload, cost model) of each benchmarked workload."""
    from perfbench.inputs import WORKLOADS as SPECS
    from perfbench.inputs import make_inputs

    for name in PERFBENCH:
        inputs = make_inputs(SPECS[name], SEED)
        yield name, inputs.workload, inputs.cost
    for k in FIG15_CLUSTERS:
        wl = clustered_example_workload(n_clusters=k)
        yield f"fig15_{len(wl)}", wl, CostModel(wl, uniform_rates(wl.event_types, FIG15_RATE))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True, help="key of this run in the JSON file")
    ap.add_argument("--out", type=Path, default=ROOT / "BENCH_optimizer.json")
    args = ap.parse_args()

    result: dict = {
        "config": {
            "perfbench_workloads": list(PERFBENCH),
            "rates_seed": SEED,
            "fig15_clusters": list(FIG15_CLUSTERS),
            "fig15_rate": FIG15_RATE,
            "warm": WARM,
            "runs": RUNS,
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
        }
    }
    for name, wl, cost in workloads():
        result[name] = measure(wl, cost, RUNS, WARM)

    bench = json.loads(args.out.read_text()) if args.out.exists() else {}
    bench[args.label] = result
    args.out.write_text(json.dumps(bench, indent=2) + "\n")
    print(json.dumps({args.label: result}, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
