"""Two-step baselines (paper Figure 3, Section 8.2): construct event
sequences first, aggregate afterwards.

- :func:`flink_like`: the non-shared two-step competitor. Each query
  independently materializes every matched sequence via an l-way
  self-join (one row per sequence — the polynomial blow-up of [29, 24])
  and only then counts. This is how the paper ran its queries on Flink.

- :func:`spass_like`: the shared two-step competitor. Sequence
  *construction* for a shared pattern happens once (a cached
  counted-endpoint match relation), aggregation stays per query — SPASS
  shares construction, not aggregation. Matches are grouped by their
  (start, end) times with a multiplicity count; mid events are
  aggregated away during construction, which is the endpoint
  compression SPASS's interval representation affords.
"""
from __future__ import annotations

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from .kernels import compile_segments
from .windows import explode_windows


def construct_sequences(exploded: DataFrame, pattern: tuple[str, ...]) -> DataFrame:
    """All matched sequences of ``pattern``: one row per sequence with
    columns t0..t{l-1} — the event sequence construction step."""
    df = (
        exploded.where(F.col("type") == pattern[0])
        .select("wid", "key", F.col("time").alias("t0"))
    )
    for j, t in enumerate(pattern[1:], start=1):
        ej = exploded.where(F.col("type") == t).select(
            "wid", "key", F.col("time").alias(f"t{j}")
        )
        df = df.join(ej, on=["wid", "key"]).where(
            F.col(f"t{j}") > F.col(f"t{j-1}")
        )
    return df


def flink_like(events: DataFrame, workload: Workload) -> DataFrame:
    """Non-shared two-step: construct-then-count per query."""
    q0 = workload[0]
    exploded = explode_windows(events, within=q0.within, slide=q0.slide)
    out = None
    for q in workload:
        cnt = (
            construct_sequences(exploded, q.pattern)
            .groupBy("wid", "key")
            .agg(F.count(F.lit(1)).alias("cnt"))
            .select(F.lit(q.qid).alias("qid"), "wid", "key", "cnt")
        )
        out = cnt if out is None else out.unionByName(cnt)
    return out


def counted_matches(exploded: DataFrame, pattern: tuple[str, ...]) -> DataFrame:
    """Matches of ``pattern`` as (wid, key, ts, te, cnt): cnt sequences
    share the start time ts and end time te."""
    df = exploded.where(F.col("type") == pattern[0]).select(
        "wid",
        "key",
        F.col("time").alias("ts"),
        F.col("time").alias("te"),
        F.lit(1).alias("cnt"),
    )
    for t in pattern[1:]:
        ej = exploded.where(F.col("type") == t).select(
            "wid", "key", F.col("time").alias("tn")
        )
        df = (
            df.join(ej, on=["wid", "key"])
            .where(F.col("tn") > F.col("te"))
            .groupBy("wid", "key", "ts", "tn")
            .agg(F.sum("cnt").alias("cnt"))
            .withColumnRenamed("tn", "te")
        )
    return df


def _combine(left: DataFrame, right: DataFrame) -> DataFrame:
    """Concatenate two counted-match relations in temporal order."""
    r = right.select(
        "wid",
        "key",
        F.col("ts").alias("r_ts"),
        F.col("te").alias("r_te"),
        F.col("cnt").alias("r_cnt"),
    )
    return (
        left.join(r, on=["wid", "key"])
        .where(F.col("r_ts") > F.col("te"))
        .groupBy("wid", "key", "ts", "r_te")
        .agg(F.sum(F.col("cnt") * F.col("r_cnt")).alias("cnt"))
        .withColumnRenamed("r_te", "te")
    )


def spass_like(
    events: DataFrame,
    workload: Workload,
    plan: list[SharingCandidate],
) -> DataFrame:
    """Shared two-step: shared patterns' match relations are built once
    (cached) and reused; per query the prefix/suffix relations are built
    privately and joined in temporal order, then counted."""
    q0 = workload[0]
    exploded = explode_windows(events, within=q0.within, slide=q0.slide)
    shared_of: dict[int, list[tuple[str, ...]]] = {q.qid: [] for q in workload}
    cache: dict[tuple[str, ...], DataFrame] = {}
    for cand in plan:
        if cand.p not in cache:
            cache[cand.p] = counted_matches(exploded, cand.p).cache()
        for qid in cand.qids:
            shared_of[qid].append(cand.p)
    out = None
    for q in workload:
        combined = None
        for seg in compile_segments(q.pattern, shared_of[q.qid]):
            m = (
                cache[seg.pattern]
                if seg.shared
                else counted_matches(exploded, seg.pattern)
            )
            combined = m if combined is None else _combine(combined, m)
        cnt = (
            combined.groupBy("wid", "key")
            .agg(F.sum("cnt").alias("cnt"))
            .where(F.col("cnt") > 0)
            .select(F.lit(q.qid).alias("qid"), "wid", "key", "cnt")
        )
        out = cnt if out is None else out.unionByName(cnt)
    return out
