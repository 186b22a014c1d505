"""Experiment harnesses reproducing the paper's evaluation (Section 8).

One function per figure/table; each returns a list of row dicts that
``jobs/*.py`` print as tables and ``EXPERIMENTS.md`` records against the
paper's numbers. Methodology notes (documented deviations):

- *Scales* are reduced relative to the paper's Java engine (DESIGN.md
  §3): the reproduction targets the comparative *shape* (which engine
  wins, how gaps grow), not absolute numbers.
- Fig 13 (two-step vs online) runs the Spark SQL join engines directly —
  the gaps are orders of magnitude, far above Spark's per-job overhead.
  A DNF guard skips join configurations whose estimated sequence count
  exceeds the engine's ``FIG13_DNF_CAPS`` entry (the paper likewise
  reports Flink/SPASS failing beyond 6-7k events/window).
- Fig 14/16 (online engines) time the driver-local kernel twin
  (:func:`repro.runtime.sharon.run_plan_pandas`) — identical code to the
  Spark path per partition (equality is oracle-tested) — because at
  laptop scale Spark's constant job overhead (~seconds) would mask the
  algorithmic effect the figures measure. Latency is wall time per
  window; throughput is events/second over the raw stream.
- Memory columns report the paper's own metric: maintained aggregates
  (modeled, ``runtime.metrics``) plus measured kernel state bytes.
"""
from __future__ import annotations

import math
import time
from statistics import median

import pandas as pd

from .core.cost import CostModel, uniform_rates
from .core.model import Workload
from .core.optimizer import (
    exhaustive_optimizer,
    greedy_optimizer,
    sharon_optimizer,
)
from .runtime import metrics
from .runtime.sharon import run_plan, run_plan_pandas
from .runtime.twostep import flink_like, spass_like
from .runtime.windows import n_windows
from .workloads import (
    clustered_example_workload,
    gwmin_trap_workload,
    rates_from_stream,
    shared_core_workload,
    stream_for_workload,
)

DURATION = 3600
WITHIN = 600
SLIDE = 300
# Driver-local engine calls are timed as the median of this many runs.
TIME_REPEATS = 3

# Fig 13: events per window swept, keys, stream seed, and each two-step
# engine's DNF cap on estimated constructed sequences. Flink (full
# sequence tuples) dies first; SPASS (shared construction,
# endpoint-compressed) survives roughly one doubling longer.
FIG13_EVENTS_PER_WINDOW = (500, 1000, 2000, 4000, 8000)
FIG13_KEYS = 8
FIG13_SEED = 0
FIG13_DNF_CAPS = {"flink": 3e6, "spass": 5e7}
# Fig 14: each sweep's values and stream seed. The parameters a sweep
# does not vary keep FIG14_DEFAULTS.
FIG14_SWEEPS = {
    "events_per_window": ((5000, 10000, 20000, 40000), 1),
    "n_queries": ((8, 16, 32, 64), 2),
    "pattern_len": ((5, 10, 15, 20), 3),
}
FIG14_DEFAULTS = {"events_per_window": 10000, "n_queries": 20, "pattern_len": 10}
# Fig 15: clusters of 7 queries swept, and the uniform per-type rate.
FIG15_CLUSTERS = (1, 2, 3, 4, 5)
FIG15_RATE = 2.0
# Fig 16: blocks of 8 queries swept, events per window, keys, seed.
FIG16_BLOCKS = (1, 2, 4, 8)
FIG16_EVENTS_PER_WINDOW = 10000
FIG16_KEYS = 4
FIG16_SEED = 4


def _stream(wl: Workload, evw: int, *, n_keys: int, seed: int, ramp: bool = False):
    """Stream sized so one window holds ~``evw`` events on average."""
    n_events = int(evw * DURATION / WITHIN)
    return stream_for_workload(
        wl, n_events=n_events, n_keys=n_keys, duration=DURATION, seed=seed, ramp=ramp
    )


def _nwin() -> int:
    return n_windows(DURATION, slide=SLIDE)


def _time_pandas(fn) -> tuple[float, object]:
    """Median wall time of a driver-local engine call."""
    times, out = [], None
    for _ in range(TIME_REPEATS):
        t0 = time.perf_counter()
        out = fn()
        times.append(time.perf_counter() - t0)
    return median(times), out


def _time_spark(df) -> tuple[float, int]:
    t0 = time.perf_counter()
    n = df.count()
    return time.perf_counter() - t0, n


def _per_key_sequence_estimate(
    wl: Workload, rates: dict, n_keys: int
) -> float:
    """Expected constructed sequences across all windows and keys for a
    two-step engine (DNF guard). Per-key rates, uniform keys."""
    total = sum(
        metrics.expected_sequences(q.pattern, lambda t: rates.get(t, 0.0) / n_keys)
        for q in wl
    )
    return total * n_keys * _nwin()


# ----------------------------------------------------------------- Fig 13


def fig13_experiment(spark) -> list[dict]:
    """Two-step (Flink-like, SPASS-like) vs online (A-Seq, Sharon):
    latency per window and throughput vs events per window, on the
    Linear-Road-analogue ramping stream. Separate DNF caps mirror the
    paper (``FIG13_DNF_CAPS``)."""
    wl = shared_core_workload(
        n_queries=6,
        pattern_len=4,
        family_size=3,
        core_frac=0.5,
        within=WITHIN,
        slide=SLIDE,
    )
    # Warm Spark's codegen/shuffle machinery so the first measured
    # configuration does not absorb one-time JIT costs.
    warm = spark.createDataFrame(_stream(wl, 200, n_keys=2, seed=99))
    flink_like(warm, wl).count()
    run_plan(warm, wl, None).count()
    rows: list[dict] = []
    for evw in FIG13_EVENTS_PER_WINDOW:
        pdf = _stream(wl, evw, n_keys=FIG13_KEYS, seed=FIG13_SEED, ramp=True)
        sdf = spark.createDataFrame(pdf).cache()
        sdf.count()
        rates = rates_from_stream(pdf, within=WITHIN, duration=DURATION)
        cost = CostModel(wl, rates)
        plan = sharon_optimizer(wl, cost).plan
        est = _per_key_sequence_estimate(wl, rates, FIG13_KEYS)
        engines = {
            "flink": lambda: flink_like(sdf, wl),
            "spass": lambda: spass_like(sdf, wl, plan),
            "aseq": lambda: run_plan(sdf, wl, None),
            "sharon": lambda: run_plan(sdf, wl, plan),
        }
        for name, build in engines.items():
            two_step = name in FIG13_DNF_CAPS
            if two_step and est > FIG13_DNF_CAPS[name]:
                rows.append(
                    {
                        "engine": name,
                        "events_per_window": evw,
                        "latency_ms_per_window": float("inf"),
                        "throughput_eps": 0.0,
                        "est_sequences": est,
                        "status": "DNF",
                    }
                )
                continue
            wall, _ = _time_spark(build())
            rows.append(
                {
                    "engine": name,
                    "events_per_window": evw,
                    "latency_ms_per_window": 1000.0 * wall / _nwin(),
                    "throughput_eps": len(pdf) / wall,
                    "est_sequences": est if two_step else 0.0,
                    "status": "ok",
                }
            )
        sdf.unpersist()
    return rows


# ----------------------------------------------------------------- Fig 14


def _fig14_point(
    wl: Workload, pdf: pd.DataFrame, *, label: str, value
) -> list[dict]:
    rates = rates_from_stream(pdf, within=WITHIN, duration=DURATION)
    cost = CostModel(wl, rates)
    plan = sharon_optimizer(wl, cost).plan
    rows = []
    for engine, p in (("aseq", None), ("sharon", plan)):
        wall, (_, stats) = _time_pandas(lambda p=p: run_plan_pandas(pdf, wl, p))
        modeled = (
            metrics.sharon_aggregates(wl, cost, p or [])
            if engine == "sharon"
            else metrics.aseq_aggregates(wl, cost)
        )
        rows.append(
            {
                "engine": engine,
                label: value,
                "latency_ms_per_window": 1000.0 * wall / _nwin(),
                "throughput_eps": len(pdf) / wall,
                "modeled_aggregates": modeled,
                "modeled_bytes": metrics.aggregates_to_bytes(modeled),
                "kernel_c_bytes": stats["c_bytes"],
                "shared_patterns": len(plan) if engine == "sharon" else 0,
            }
        )
    return rows


def fig14_workload(n_queries: int, pattern_len: int = 10) -> Workload:
    """Fig 14's shared-core workload: four families of long shared suffixes."""
    return shared_core_workload(
        n_queries=n_queries,
        pattern_len=pattern_len,
        family_size=n_queries // 4,
        core_frac=0.8,
        within=WITHIN,
        slide=SLIDE,
    )


def fig14_sweep(label: str) -> list[dict]:
    """Fig 14's sweep over ``label``, one of ``FIG14_SWEEPS``."""
    values, seed = FIG14_SWEEPS[label]
    rows = []
    for value in values:
        point = {**FIG14_DEFAULTS, label: value}
        wl = fig14_workload(point["n_queries"], point["pattern_len"])
        pdf = _stream(wl, point["events_per_window"], n_keys=4, seed=seed)
        rows += _fig14_point(wl, pdf, label=label, value=value)
    return rows


# ----------------------------------------------------------------- Fig 15


def fig15_experiment() -> list[dict]:
    """Optimizer latency and memory: Sharon (SO, the paper's as-printed
    finder) vs greedy (GO) vs exhaustive (EO), varying workload size
    (7 queries per cluster).
    Uniform low per-type rate keeps candidates beneficial, matching the
    regime where the paper's optimizers have work to do."""
    rows = []
    for k in FIG15_CLUSTERS:
        wl = clustered_example_workload(n_clusters=k)
        cost = CostModel(wl, uniform_rates(wl.event_types, FIG15_RATE))
        for name, runner in (
            ("greedy", lambda: greedy_optimizer(wl, cost)),
            ("sharon", lambda: sharon_optimizer(wl, cost, decompose=False)),
            ("exhaustive", lambda: exhaustive_optimizer(wl, cost)),
        ):
            try:
                res = runner()
                rows.append(
                    {
                        "optimizer": name,
                        "n_queries": len(wl),
                        "latency_ms": 1000.0 * res.latency,
                        "peak_memory_bytes": res.peak_memory,
                        "score": res.score,
                        "phases": {
                            ph: round(1000.0 * t, 3)
                            for ph, t in res.phase_latency.items()
                        },
                        "status": "ok",
                    }
                )
            except ValueError:
                rows.append(
                    {
                        "optimizer": name,
                        "n_queries": len(wl),
                        "latency_ms": float("inf"),
                        "peak_memory_bytes": float("inf"),
                        "score": float("nan"),
                        "phases": {},
                        "status": "DNF",
                    }
                )
    return rows


# ----------------------------------------------------------------- Fig 16


def fig16_experiment() -> list[dict]:
    """Executor latency/memory when guided by a greedily chosen plan vs
    an optimal plan (Sharon optimizer), on star-shaped workloads (8
    queries per block) where GWMIN's weight/(degree+1) rule provably
    picks the sub-optimal hub candidate (Example 12's structure at
    scale)."""
    rows = []
    for k in FIG16_BLOCKS:
        wl = gwmin_trap_workload(n_blocks=k, within=WITHIN, slide=SLIDE)
        pdf = _stream(
            wl, FIG16_EVENTS_PER_WINDOW, n_keys=FIG16_KEYS, seed=FIG16_SEED
        )
        # Plan under uniform estimated rates (the optimizer's statistics;
        # planning and execution statistics differ in practice too). The
        # uniform-rate Sharon graph is exactly the star structure where
        # GWMIN's weight/(degree+1) rule provably picks the hub.
        cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
        exec_cost = CostModel(
            wl, rates_from_stream(pdf, within=WITHIN, duration=DURATION)
        )
        plans = {
            "greedy_plan": greedy_optimizer(wl, cost),
            "optimal_plan": sharon_optimizer(wl, cost, max_options=32),
        }
        for name, res in plans.items():
            wall, (_, stats) = _time_pandas(
                lambda p=res.plan: run_plan_pandas(pdf, wl, p)
            )
            modeled = metrics.sharon_aggregates(wl, exec_cost, res.plan)
            rows.append(
                {
                    "plan": name,
                    "n_queries": len(wl),
                    "plan_score": res.score,
                    "latency_ms_per_window": 1000.0 * wall / _nwin(),
                    "modeled_aggregates": modeled,
                    "modeled_bytes": metrics.aggregates_to_bytes(modeled),
                    "kernel_c_bytes": stats["c_bytes"],
                }
            )
    return rows


def format_table(rows: list[dict]) -> str:
    """Plain-text table of experiment rows (jobs' stdout and
    EXPERIMENTS.md source)."""
    if not rows:
        return "(no rows)"
    cols = list(rows[0].keys())
    out = ["\t".join(cols)]
    for r in rows:
        cells = []
        for c in cols:
            v = r.get(c)
            if isinstance(v, float):
                cells.append(f"{v:.3f}" if math.isfinite(v) else "DNF")
            else:
                cells.append(str(v))
        out.append("\t".join(cells))
    return "\n".join(out)
