"""The Sharon runtime executor (paper Sections 2.2 and 3.3) as a
distributed dataflow.

``compile_plan`` turns a workload + sharing plan into per-query segments
(the "compiled sharing graph"). :func:`run_plan_pandas` counts a pandas
stream: it explodes the stream into sliding windows, cuts the ``(wid,
key)`` partitions, indexes them in one :class:`kernels.SharedCache` and
runs the kernels' one evaluation call, :func:`kernels.count_queries`,
once over all of them. Every shared pattern's aggregate is built once
per call and reused by all queries sharing it; residual prefix/suffix
segments run per query. ``run_plan``
is the same routine on Spark: the ``WHERE [key]`` predicate makes keys
independent, so the raw events are shuffled by ``key`` and each task
runs :func:`run_plan_pandas` on the whole keys it owns, through
``mapInPandas``. Counts are exact int64 (``cnt long``); a count of 2^63
or more raises OverflowError (see :mod:`kernels`).

A true JVM physical operator is out of scope offline (DESIGN.md §2);
``mapInPandas`` over Catalyst's shuffle is the documented substitute.
"""
from __future__ import annotations

import sys
import zipimport

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql.types import LongType, StructField, StructType

from ..core.model import SharingCandidate, Workload
from .kernels import Segment, SharedCache, compile_segments, count_queries
from .windows import partition_rows

_OUT_COLUMNS = ["wid", "key", "qid", "cnt"]
# A StructType, not a DDL string: mapInPandas would parse the string
# through the JVM on every run_plan call.
_OUT_SCHEMA = StructType([StructField(c, LongType()) for c in _OUT_COLUMNS])


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
        drop_zip_finders()
        frames = list(batches)
        if frames:
            yield run_plan_pandas(pd.concat(frames), workload, plan)[0]

    return events.repartition("key").mapInPandas(task, schema=_OUT_SCHEMA)


def drop_zip_finders() -> None:
    """Forget the zip archives' cached import finders in this process.

    PySpark's reused Python worker calls ``importlib.invalidate_caches()``
    before every task (``worker_util.setup_spark_files``). On CPython 3.11
    that makes each cached ``zipimporter`` — one per package directory
    imported from pyspark.zip, py4j's zip or a Spark jar, 16 in a PySpark
    4.1 worker — re-read its archive's whole central directory: 26,672
    entries and 120-220 ms of CPU per task, more than the task's own work.
    Python rebuilds a dropped finder the next time an import needs it, so
    the next task's invalidation finds nothing to re-read.
    """
    for path, finder in list(sys.path_importer_cache.items()):
        if isinstance(finder, zipimport.zipimporter):
            del sys.path_importer_cache[path]


def run_plan_pandas(
    events: pd.DataFrame,
    workload: Workload,
    plan: list[SharingCandidate] | None,
    *,
    first: int = 0,
    stop: int | None = None,
) -> tuple[pd.DataFrame, dict]:
    """COUNT(*) per (window, key, query) over a pandas stream: one
    :func:`count_queries` pass over every (wid, key) partition of the
    windows ``first <= wid < stop`` (every window by default).

    The events need not be in time order. This is the one evaluation
    routine: :func:`run_plan` runs it per Spark task and the streaming
    driver per batch, over the windows the batch closes; benchmarks call
    it directly for the pass's kernel-state statistics (shared builds by
    kind and their bytes, segments, partition sizes). Returns (counts,
    stats); ``stats`` adds ``partitions`` and ``rows``, the (event,
    window) rows evaluated, to the pass's figures.
    """
    q0 = workload[0]
    rows = partition_rows(
        events, within=q0.within, slide=q0.slide, first=first, stop=stop
    )
    compiled = compile_plan(workload, plan)
    cache = SharedCache(
        rows.times, rows.codes, rows.names, pids=rows.pids, n_parts=len(rows.wids)
    )
    counts, stats = count_queries(cache, list(compiled.values()))
    qids = np.array(list(compiled), dtype=np.int64)
    return (
        _rows(counts, qids, rows.wids, rows.keys),
        {"partitions": len(rows.wids), "rows": len(rows.times), **stats},
    )
