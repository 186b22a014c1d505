"""The Sharon runtime executor (paper Sections 2.2 and 3.3) as a
distributed dataflow.

``compile_plan`` turns a workload + sharing plan into a per-query
segment spec (the "compiled sharing graph"); ``run_plan`` explodes the
stream into sliding windows, partitions by ``(wid, key)`` — the
``WHERE [vehicle]`` predicate makes partitions independent — and runs
one vectorized kernel per partition via ``applyInPandas``. Inside a
partition every shared pattern's C-matrix is built once and reused by
all queries sharing it; residual prefix/suffix segments run per query.

A true JVM physical operator is out of scope offline (DESIGN.md §2);
``applyInPandas`` over Catalyst's shuffle is the documented substitute.
"""
from __future__ import annotations

from typing import Callable, Sequence

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from .kernels import Segment, SharedCache, compile_segments, eval_query
from .windows import explode_windows, explode_windows_pandas, split_partitions

_OUT_SCHEMA = "wid long, key long, qid long, cnt double"
_OUT_COLUMNS = ["wid", "key", "qid", "cnt"]

# A compiled plan is plain data (picklable into Spark task closures):
# qid -> list of (pattern, shared) segment tuples.
CompiledPlan = dict[int, list[tuple[tuple[str, ...], bool]]]


def compile_plan(
    workload: Workload, plan: list[SharingCandidate] | None
) -> CompiledPlan:
    """Assign each query its plan-shared patterns and segment it.

    ``plan=None`` or an empty plan compiles every query as one private
    segment — the Non-Shared method (A-Seq)."""
    shared_of: dict[int, list[tuple[str, ...]]] = {q.qid: [] for q in workload}
    for cand in plan or []:
        for qid in cand.qids:
            shared_of[qid].append(cand.p)
    spec: CompiledPlan = {}
    for q in workload:
        segs = compile_segments(q.pattern, shared_of[q.qid])
        spec[q.qid] = [(s.pattern, s.shared) for s in segs]
    return spec


def _segments(spec: CompiledPlan) -> dict[int, list[Segment]]:
    return {
        qid: [Segment(p, shared) for p, shared in seg_spec]
        for qid, seg_spec in spec.items()
    }


def evaluate_partition(
    times: np.ndarray,
    codes: np.ndarray,
    names: Sequence[str],
    compiled: dict[int, list[Segment]],
) -> tuple[list[tuple[int, float]], dict]:
    """Evaluate every query of the workload over one (wid, key)
    partition, sharing aggregates through one SharedCache.

    ``times`` are ascending; ``codes`` index ``names``. Returns the
    (qid, cnt) rows with cnt > 0, and the partition's kernel-state
    stats (shared builds and their bytes)."""
    cache = SharedCache(times, codes, names)
    rows = []
    for qid, segments in compiled.items():
        cnt = eval_query(times, codes, segments, cache)
        if cnt > 0:
            rows.append((qid, cnt))
    return rows, {"c_builds": cache.builds, "c_bytes": cache.state_bytes}


def make_kernel(spec: CompiledPlan) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """Per-partition kernel: :func:`evaluate_partition` over one
    (wid, key) group."""

    compiled = _segments(spec)

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("time", kind="stable")
        codes, names = pd.factorize(pdf["type"], use_na_sentinel=False)
        rows, _ = evaluate_partition(
            pdf["time"].to_numpy(np.int64), codes, names, compiled
        )
        wid = int(pdf["wid"].iloc[0])
        key = int(pdf["key"].iloc[0])
        return pd.DataFrame(
            [(wid, key, qid, cnt) for qid, cnt in rows], columns=_OUT_COLUMNS
        )

    return kernel


def run_plan(
    events: DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> DataFrame:
    """COUNT(*) per (window, key, query) for the whole workload.

    All queries share (within, slide) — the paper's assumption 2 — so
    the window explosion happens once for the workload.
    """
    q0 = workload[0]
    exploded = explode_windows(events, within=q0.within, slide=q0.slide)
    spec = compile_plan(workload, plan)
    return (
        exploded.groupBy("wid", "key")
        .applyInPandas(make_kernel(spec), schema=_OUT_SCHEMA)
    )


def run_plan_pandas(
    events: pd.DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> tuple[pd.DataFrame, dict]:
    """Driver-local twin of :func:`run_plan` over a pandas stream.

    Used by benchmarks that need kernel-state statistics (C-matrix bytes,
    builds) which Spark task closures cannot report, and by the chunked
    streaming driver. Returns (counts, stats).
    """
    q0 = workload[0]
    exploded = explode_windows_pandas(
        events, within=q0.within, slide=q0.slide
    )
    names, parts = split_partitions(exploded)
    compiled = _segments(compile_plan(workload, plan))
    rows = []
    stats = {"partitions": len(parts), "c_builds": 0, "c_bytes": 0}
    for wid, key, times, codes in parts:
        part_rows, part_stats = evaluate_partition(times, codes, names, compiled)
        rows += [(wid, key, qid, cnt) for qid, cnt in part_rows]
        stats["c_builds"] += part_stats["c_builds"]
        stats["c_bytes"] += part_stats["c_bytes"]
    counts = pd.DataFrame(rows, columns=_OUT_COLUMNS)
    return counts, stats


def per_window_counts(counts: DataFrame) -> DataFrame:
    """RETURN COUNT(*) per query per window (summed over group keys)."""
    return counts.groupBy("qid", "wid").agg(F.sum("cnt").alias("cnt"))
