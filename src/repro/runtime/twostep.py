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

from functools import reduce

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..core.model import SharingCandidate, Workload
from .sharon import compile_plan
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
    counts = [
        construct_sequences(exploded, q.pattern)
        .groupBy("wid", "key")
        .agg(F.count(F.lit(1)).alias("cnt"))
        .select(F.lit(q.qid).alias("qid"), "wid", "key", "cnt")
        for q in workload
    ]
    return reduce(DataFrame.unionByName, counts)


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


def _type_matches(exploded: DataFrame, t: str) -> DataFrame:
    """Events of type ``t`` as a counted-match relation: one
    single-event sequence per row, so ts = te = time and cnt = 1."""
    return exploded.where(F.col("type") == t).select(
        "wid",
        "key",
        F.col("time").alias("ts"),
        F.col("time").alias("te"),
        F.lit(1).alias("cnt"),
    )


def counted_matches(exploded: DataFrame, pattern: tuple[str, ...]) -> DataFrame:
    """Matches of ``pattern`` as (wid, key, ts, te, cnt): cnt sequences
    share the start time ts and end time te."""
    return reduce(_combine, (_type_matches(exploded, t) for t in pattern))


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
    cache = {
        p: counted_matches(exploded, p).cache()
        for p in dict.fromkeys(cand.p for cand in plan)
    }
    counts = []
    for qid, segments in compile_plan(workload, plan).items():
        combined = reduce(
            _combine,
            (
                cache[seg.pattern]
                if seg.shared
                else counted_matches(exploded, seg.pattern)
                for seg in segments
            ),
        )
        counts.append(
            combined.groupBy("wid", "key")
            .agg(F.sum("cnt").alias("cnt"))
            .where(F.col("cnt") > 0)
            .select(F.lit(qid).alias("qid"), "wid", "key", "cnt")
        )
    return reduce(DataFrame.unionByName, counts)
