"""A-Seq's online aggregation expressed purely in Catalyst (no Python
kernel): the prefix-count recurrence of Figure 6 becomes a chain of
masked window-function cumulative sums.

``RANGE BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING`` over the numeric
``time`` ordering implements the *strictly earlier* semantics of
Definition 1 (ties share a time value and are excluded), matching the
numpy kernels' ``searchsorted`` cutoff exactly.
"""
from __future__ import annotations

from pyspark.sql import DataFrame, Window
from pyspark.sql import functions as F

from ..core.model import Query, Workload
from .windows import explode_windows


def chain_counts_sql(exploded: DataFrame, pattern: tuple[str, ...]) -> DataFrame:
    """COUNT(*) per (wid, key) for one pattern over a window-exploded
    stream — l chained window functions, linear in events."""
    w = (
        Window.partitionBy("wid", "key")
        .orderBy("time")
        .rangeBetween(Window.unboundedPreceding, -1)
    )
    df = exploded.withColumn(
        "v0", F.when(F.col("type") == pattern[0], F.lit(1)).otherwise(F.lit(0))
    )
    for j, t in enumerate(pattern[1:], start=1):
        df = df.withColumn(
            f"v{j}",
            F.when(
                F.col("type") == t,
                F.coalesce(F.sum(f"v{j-1}").over(w), F.lit(0)),
            ).otherwise(F.lit(0)),
        )
    last = f"v{len(pattern) - 1}"
    return (
        df.groupBy("wid", "key")
        .agg(F.sum(last).alias("cnt"))
        .where(F.col("cnt") > 0)
    )


def run_query_sql(events: DataFrame, query: Query) -> DataFrame:
    """One query end to end: explode windows, run the Catalyst chain."""
    exploded = explode_windows(events, within=query.within, slide=query.slide)
    return chain_counts_sql(exploded, query.pattern)


def run_aseq_sql(events: DataFrame, workload: Workload) -> DataFrame:
    """Whole workload, each query independent; rows (qid, wid, key, cnt)."""
    out = None
    q0 = workload[0]
    exploded = explode_windows(events, within=q0.within, slide=q0.slide)
    for q in workload:
        res = chain_counts_sql(exploded, q.pattern).select(
            F.lit(q.qid).alias("qid"), "wid", "key", "cnt"
        )
        out = res if out is None else out.unionByName(res)
    return out
