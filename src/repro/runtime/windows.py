"""Sliding-window assignment (Definition 2's WITHIN/SLIDE clause).

An event at time t belongs to every window ``w_i = [i*slide,
i*slide + within)`` with ``i >= 0`` that contains t. Following the
paper's assumption 2, all queries of a workload share one (within,
slide) pair, so the stream is exploded once for every engine — the
replication factor ``ceil(within/slide)`` hits all engines equally.
"""
from __future__ import annotations

from typing import NamedTuple

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


def window_rows(
    times: np.ndarray, *, within: int, slide: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (event, window) relation on arrays: ``(src, wid)``, one entry
    per event and window containing it, events in input order and each
    event's windows ascending.

    No per-event Python work: each event is repeated once per window it
    falls in (``hi - lo + 1`` times, 0 for events in the gaps of a
    ``slide > within`` stream), and its window ids are its first window
    plus the row's offset within its run."""
    lo = np.maximum(0, (times - within) // slide + 1)
    reps = times // slide - lo + 1
    src = np.repeat(np.arange(len(times)), reps)
    run_start = np.cumsum(reps) - reps
    wid = np.repeat(lo - run_start, reps) + np.arange(len(src))
    return src, wid.astype(np.int64)


def explode_windows_pandas(
    events: pd.DataFrame, *, within: int, slide: int
) -> pd.DataFrame:
    """Pandas twin of :func:`explode_windows` — feeds the DuckDB oracle
    the exact same (event, window) relation the engines see: the rows of
    :func:`window_rows`, ordered by (wid, key, time) with one stable
    lexsort, ties in stream order."""
    t = events["time"].to_numpy()
    src, wid = window_rows(t, within=within, slide=slide)
    order = np.lexsort((t[src], events["key"].to_numpy()[src], wid))
    out = events.take(src[order]).reset_index(drop=True)
    out["wid"] = wid[order]
    return out


class Partitioned(NamedTuple):
    """A stream's (event, window) rows as :func:`partition_rows` returns
    them: per row its time within its window, type code and partition;
    per partition its window id and key, in (wid, key) order."""

    times: np.ndarray
    codes: np.ndarray
    names: list[str]
    pids: np.ndarray
    wids: np.ndarray
    keys: np.ndarray


def partition_rows(
    events: pd.DataFrame, *, within: int, slide: int
) -> Partitioned:
    """The (event, window) relation of :func:`window_rows`, cut into its
    ``(wid, key)`` partitions without building an exploded frame.

    Types and keys are encoded once on the raw events. Rows keep the
    stream's time order (the stream is sorted first if it is not), so
    each partition's rows are in ascending time order, as
    ``kernels.TypeIndex`` needs. A row's time is its offset from its
    window's start, which keeps the kernels' composite keys below
    ``partitions * within``."""
    t = events["time"].to_numpy(np.int64)
    codes, names = pd.factorize(events["type"])
    kcodes, keys = pd.factorize(events["key"], sort=True)
    if len(t) and min(codes.min(), kcodes.min()) < 0:
        raise ValueError("events with a missing type or key")
    if len(t) and (t[1:] < t[:-1]).any():
        by_time = np.argsort(t, kind="stable")
        t, codes, kcodes = t[by_time], codes[by_time], kcodes[by_time]
    src, wid = window_rows(t, within=within, slide=slide)
    n_keys = max(len(keys), 1)
    # Dense partition ids in (wid, key) order: a hash pass over the rows,
    # then a sort of the distinct (wid, key) slots only.
    pids, slots = pd.factorize(wid * n_keys + kcodes[src], sort=True)
    return Partitioned(
        times=t[src] - wid * slide,
        codes=codes[src],
        names=[str(n) for n in names],
        pids=pids,
        wids=slots // n_keys,
        keys=np.asarray(keys)[slots % n_keys],
    )


def n_windows(duration: int, *, within: int, slide: int) -> int:
    """Number of windows that overlap [0, duration)."""
    return max(0, (duration - 1) // slide + 1)
