"""The Sharon runtime executor (paper Sections 2.2 and 3.3) as a
distributed dataflow.

``compile_plan`` turns a workload + sharing plan into per-query segments
(the "compiled sharing graph"). :func:`run_plan_pandas` counts a pandas
stream: it explodes the stream into sliding windows, cuts the ``(wid,
key)`` partitions and runs the kernels' one-pass core,
:func:`kernels.evaluate_partitions`, once over all of them. Every shared
pattern's aggregate is built once per call and reused by all queries
sharing it; residual prefix/suffix segments run per query. ``run_plan``
is the same routine on Spark: the ``WHERE [key]`` predicate makes keys
independent, so the raw events are shuffled by ``key`` and each task
runs :func:`run_plan_pandas` on the whole keys it owns, through
``mapInPandas``. Counts are exact int64 (``cnt long``); a count of 2^63
or more raises OverflowError (see :mod:`kernels`).

A true JVM physical operator is out of scope offline (DESIGN.md §2);
``mapInPandas`` over Catalyst's shuffle is the documented substitute.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from .kernels import Segment, compile_segments, evaluate_partitions
from .windows import partition_rows

_OUT_SCHEMA = "wid long, key long, qid long, cnt long"
_OUT_COLUMNS = ["wid", "key", "qid", "cnt"]


def compile_plan(
    workload: Workload, plan: list[SharingCandidate] | None
) -> dict[int, list[Segment]]:
    """Assign each query its plan-shared patterns and segment it.

    ``plan=None`` or an empty plan compiles every query as one private
    segment — the Non-Shared method (A-Seq)."""
    shared_of: dict[int, list[tuple[str, ...]]] = {q.qid: [] for q in workload}
    for cand in plan or []:
        for qid in cand.qids:
            shared_of[qid].append(cand.p)
    return {q.qid: compile_segments(q.pattern, shared_of[q.qid]) for q in workload}


def _rows(
    counts: np.ndarray, qids: np.ndarray, wids: np.ndarray, keys: np.ndarray
) -> pd.DataFrame:
    """(wid, key, qid, cnt) rows of the nonzero counts, ``counts[i, p]``
    being query ``qids[i]``'s count in partition p; partition-major."""
    part, q = np.nonzero(counts.T)
    cols = (wids[part], keys[part], qids[q], counts[q, part])
    return pd.DataFrame(np.column_stack(cols).astype(np.int64), columns=_OUT_COLUMNS)


def run_plan(
    events: DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> DataFrame:
    """COUNT(*) per (window, key, query) for the whole workload: each
    task runs :func:`run_plan_pandas` over the keys the shuffle gives it.

    All queries share (within, slide) — the paper's assumption 2 — so
    each task explodes its events into windows once for the workload.
    """

    def task(batches):
        frames = list(batches)
        if frames:
            yield run_plan_pandas(pd.concat(frames), workload, plan)[0]

    return events.repartition("key").mapInPandas(task, schema=_OUT_SCHEMA)


def run_plan_pandas(
    events: pd.DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
) -> tuple[pd.DataFrame, dict]:
    """COUNT(*) per (window, key, query) over a pandas stream: one
    :func:`evaluate_partitions` pass over every (wid, key) partition.

    The events need not be in time order. This is the one evaluation
    routine: :func:`run_plan` runs it per Spark task and the streaming
    driver per batch; benchmarks call it directly for the pass's
    kernel-state statistics (shared builds by kind and their bytes,
    segments, partition sizes). Returns (counts, stats); ``stats`` adds
    ``partitions`` to the pass's figures.
    """
    q0 = workload[0]
    rows = partition_rows(events, within=q0.within, slide=q0.slide)
    compiled = compile_plan(workload, plan)
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
