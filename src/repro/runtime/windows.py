"""Sliding-window assignment (Definition 2's WITHIN/SLIDE clause).

An event at time t belongs to every window ``w_i = [i*slide,
i*slide + within)`` with ``i >= 0`` that contains t. Following the
paper's assumption 2, all queries of a workload share one (within,
slide) pair, so the stream is exploded once for every engine — the
replication factor ``ceil(within/slide)`` hits all engines equally.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame
from pyspark.sql import functions as F


def explode_windows(events: DataFrame, *, within: int, slide: int) -> DataFrame:
    """Spark: add a ``wid`` column, one output row per (event, window)."""
    lo = F.greatest(
        F.lit(0), (F.floor((F.col("time") - F.lit(within)) / F.lit(slide)) + 1)
    )
    hi = F.floor(F.col("time") / F.lit(slide))
    return events.withColumn("wid", F.explode(F.sequence(lo, hi)))


def explode_windows_pandas(
    events: pd.DataFrame, *, within: int, slide: int
) -> pd.DataFrame:
    """Pandas twin of :func:`explode_windows` — feeds the DuckDB oracle
    the exact same (event, window) relation the engines see.

    Rows are ordered by (wid, key, time), ties in stream order. No
    per-event Python work: each event is repeated once per window it
    falls in, its window ids are its first window plus the row's offset
    within its run, and one stable lexsort orders the result."""
    t = events["time"].to_numpy()
    lo = np.maximum(0, (t - within) // slide + 1)
    hi = t // slide
    reps = hi - lo + 1
    src = np.repeat(np.arange(len(t)), reps)
    run_start = np.cumsum(reps) - reps
    wid = np.repeat(lo - run_start, reps) + np.arange(len(src))
    order = np.lexsort((t[src], events["key"].to_numpy()[src], wid))
    out = events.take(src[order]).reset_index(drop=True)
    out["wid"] = wid[order].astype("int64")
    return out


def split_partitions(
    exploded: pd.DataFrame,
) -> tuple[list[str], list[tuple[int, int, np.ndarray, np.ndarray]]]:
    """Cut an exploded stream (ordered by wid, key, time, as
    :func:`explode_windows_pandas` returns it) into its ``(wid, key)``
    partitions in one pass.

    Event types are encoded to int codes once for the whole stream.
    Returns ``(names, parts)``: ``names[code]`` is a type's name and each
    part is ``(wid, key, times, codes)`` with slices of the global
    arrays, in (wid, key) order."""
    wid = exploded["wid"].to_numpy()
    key = exploded["key"].to_numpy()
    times = exploded["time"].to_numpy(np.int64)
    codes, uniques = pd.factorize(exploded["type"], use_na_sentinel=False)
    cuts = np.flatnonzero((wid[1:] != wid[:-1]) | (key[1:] != key[:-1])) + 1
    bounds = np.r_[0, cuts, len(wid)] if len(wid) else np.zeros(1, dtype=int)
    parts = [
        (int(wid[a]), int(key[a]), times[a:b], codes[a:b])
        for a, b in zip(bounds[:-1], bounds[1:])
    ]
    return [str(n) for n in uniques], parts


def n_windows(duration: int, *, within: int, slide: int) -> int:
    """Number of windows that overlap [0, duration)."""
    return max(0, (duration - 1) // slide + 1)
