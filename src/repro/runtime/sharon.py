"""The Sharon runtime executor (paper Sections 2.2 and 3.3) as a
distributed dataflow.

``compile_plan`` turns a workload + sharing plan into a per-query
segment spec (the "compiled sharing graph"); ``run_plan`` explodes the
stream into sliding windows, partitions by ``(wid, key)`` — the
``WHERE [vehicle]`` predicate makes partitions independent — and runs
the kernels' one-pass core, :func:`kernels.evaluate_partitions`, on each
partition via ``applyInPandas``. The driver-local twin
(:func:`run_plan_pandas`) runs the same core once over all partitions.
Every shared pattern's aggregate is built once per call and reused by
all queries sharing it; residual prefix/suffix segments run per query.
Counts are exact int64 (``cnt long``); a count of 2^63 or more raises
OverflowError (see :mod:`kernels`).

A true JVM physical operator is out of scope offline (DESIGN.md §2);
``applyInPandas`` over Catalyst's shuffle is the documented substitute.
"""
from __future__ import annotations

from typing import Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from .kernels import Segment, compile_segments, evaluate_partitions
from .windows import explode_windows, partition_rows

_OUT_SCHEMA = "wid long, key long, qid long, cnt long"
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


def _rows(
    counts: np.ndarray, qids: np.ndarray, wids: np.ndarray, keys: np.ndarray
) -> pd.DataFrame:
    """(wid, key, qid, cnt) rows of the nonzero counts, ``counts[i, p]``
    being query ``qids[i]``'s count in partition p; partition-major."""
    part, q = np.nonzero(counts.T)
    cols = (wids[part], keys[part], qids[q], counts[q, part])
    return pd.DataFrame(np.column_stack(cols).astype(np.int64), columns=_OUT_COLUMNS)


def make_kernel(spec: CompiledPlan) -> Callable[[pd.DataFrame], pd.DataFrame]:
    """Per-partition kernel: :func:`evaluate_partitions` over one
    (wid, key) group."""

    compiled = _segments(spec)
    qids = np.array(list(compiled), dtype=np.int64)
    queries = list(compiled.values())

    def kernel(pdf: pd.DataFrame) -> pd.DataFrame:
        pdf = pdf.sort_values("time", kind="stable")
        codes, names = pd.factorize(pdf["type"], use_na_sentinel=False)
        counts, _ = evaluate_partitions(
            pdf["time"].to_numpy(np.int64), codes, names, None, 1, queries
        )
        return _rows(
            counts, qids, pdf["wid"].to_numpy()[:1], pdf["key"].to_numpy()[:1]
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
    """Driver-local twin of :func:`run_plan` over a pandas stream: one
    :func:`evaluate_partitions` pass over every (wid, key) partition.

    Used by benchmarks that need kernel-state statistics (shared builds
    by kind and their bytes, segments, partition sizes) which Spark task
    closures cannot report, and by the chunked streaming driver. Returns
    (counts, stats); ``stats`` adds ``partitions`` to the pass's figures.
    """
    q0 = workload[0]
    rows = partition_rows(events, within=q0.within, slide=q0.slide)
    compiled = _segments(compile_plan(workload, plan))
    counts, stats = evaluate_partitions(
        rows.times, rows.codes, rows.names, rows.pids, len(rows.wids),
        list(compiled.values()),
    )
    qids = np.array(list(compiled), dtype=np.int64)
    return (
        _rows(counts, qids, rows.wids, rows.keys),
        {"partitions": len(rows.wids), **stats},
    )


def per_window_counts(counts: DataFrame) -> DataFrame:
    """RETURN COUNT(*) per query per window (summed over group keys)."""
    return counts.groupBy("qid", "wid").agg(F.sum("cnt").alias("cnt"))
