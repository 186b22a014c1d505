"""End-to-end metrics, measured with tracing off.

A round samples every operation, in an order that reverses every other
round, so engines alternate which runs first and a slow spell on the box
hits all metrics alike. Rounds repeat until ``seconds`` have passed and
the open-loop replay has completed at least one pass.

A time metric is the mean of its samples, each scaled to the reference
speed of the box (``PROBE_REF_S`` in ``prepare.py``), not their median.
A shared VM runs in fast and slow spells of a second
to a minute, so a run's few samples of one operation fall into two
clusters, and their median jumps between them from run to run. On a
shared 4-vCPU x86 VM, over thirteen 4- to 10-run sets of the same code,
the spread of the mean of the raw walls between runs averaged 0.15 of
its value and that of the median 0.18.
"""
from __future__ import annotations

import resource
import time
from statistics import mean, median, quantiles

from .inputs import N_BATCHES
from .prepare import OPEN_BATCHES_PER_ROUND, Prepared, Sample

MIN_ROUNDS = N_BATCHES // OPEN_BATCHES_PER_ROUND


def measure(p: Prepared, seconds: float) -> tuple[dict, dict]:
    """Return (metric values, sample counts, raw and scaled samples)."""
    samples: dict[str, list[Sample]] = {
        k: [] for k in ("optimize", "sharon_spark", "aseq_spark", "sharon_twin", "aseq_twin", "stream")
    }
    opt = ("optimize", lambda: p.timed("sharon_optimizer", p.optimize, p.same_plan, p.spec.optimize_reps))
    spark_s = ("sharon_spark", lambda: p.timed("spark sharon", lambda: p.spark_counts(p.plan), p.matches))
    spark_a = ("aseq_spark", lambda: p.timed("spark aseq", lambda: p.spark_counts(None), p.matches))
    twin_s = ("sharon_twin", lambda: p.timed("twin sharon", lambda: p.twin_counts(p.plan), p.matches))
    twin_a = ("aseq_twin", lambda: p.timed("twin aseq", lambda: p.twin_counts(None), p.matches))
    stream = ("stream", lambda: p.timed("closed-loop replay", p.stream_slice, p.matches_slice))
    # The optimizer samples are the shortest, so a round takes three.
    ops = [opt, twin_s, spark_s, twin_a, opt, stream, spark_a, opt, ("open_loop", p.open_segment)]
    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < MIN_ROUNDS or time.perf_counter() < deadline:
        for name, op in ops if rounds % 2 == 0 else ops[::-1]:
            t = op()
            if t is not None:
                samples[name].append(t)
        rounds += 1

    n = len(p.inputs.events)
    lat = p.open_latency_scaled

    def seconds_per_call(key: str) -> float | None:
        return mean(s.scaled for s in samples[key]) if samples[key] else None

    def eps(events: int, key: str) -> float | None:
        t = seconds_per_call(key)
        return events / t if t else None

    values = {
        "setup_s": median(s.scaled for s in p.setup),
        "optimize_s": seconds_per_call("optimize"),
        "plan_score": p.plan_score,
        "sharon_spark_eps": eps(n, "sharon_spark"),
        "aseq_spark_eps": eps(n, "aseq_spark"),
        "sharon_twin_eps": eps(n, "sharon_twin"),
        "aseq_twin_eps": eps(n, "aseq_twin"),
        "stream_eps": eps(p.slice_events, "stream"),
        "stream_lat_p50_ms": 1000 * median(lat) if lat else None,
        "stream_lat_p90_ms": 1000 * quantiles(lat, n=10)[8] if len(lat) > 1 else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    counts = {k: len(v) for k, v in samples.items()}
    counts.update(rounds=rounds, open_loop_batches=len(lat))
    return values, {
        "samples": counts,
        "wall_s": {k: [s.wall for s in v] for k, v in samples.items()},
        "probe_s": {k: [s.probe for s in v] for k, v in samples.items()},
        "open_loop_latency_wall_s": p.open_loop.latency_s,
    }
