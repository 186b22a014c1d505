"""Micro-batch streaming driver over the twin's one-pass core (DESIGN.md §2).

The paper's executors are *online*: counts per window and key are final
once the stream passes the window's end, and events no open window uses
are discarded. This driver keeps that contract with the batch core
itself, :func:`sharon.run_plan_pandas`: it holds the events that still
belong to an open window, and after each batch counts the windows the
stream has just passed in one pass over those events, restricted to
those windows' (event, window) rows, emits them and evicts the events
that only closed windows used. Each window is thus counted once, by the
pass that closes it, and windows that hold no event are closed without
a pass. Its state is therefore
the events of less than one WITHIN span, whatever the stream length, and
its counts are the core's exact int64 counts — chunked results are
identical to one-shot evaluation (tested).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from ..core.model import Workload
from .sharon import run_plan_pandas
from .windows import check_times, window_span


class MicroBatchExecutor:
    """Feeds chunks of a (time-sorted) event stream through the A-Seq
    core; ``results()`` returns (wid, key, qid, cnt) like the batch
    engines."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self._held: list[pd.DataFrame] = []  # events of the open windows
        self._emitted: list[pd.DataFrame] = []  # counts of closed windows
        self._open = 0  # first window not yet emitted
        self._last_time: int | None = None  # None: no event seen yet

    def process_batch(self, batch: pd.DataFrame) -> None:
        if batch.empty:
            return
        tmin = int(batch["time"].min())
        check_times(tmin)
        if self._last_time is not None and tmin <= self._last_time:
            raise ValueError(
                f"batch starts at {tmin} but {self._last_time} already seen; "
                "batches must be time-ordered and split between timestamps "
                "(ties must stay within one batch for strict-time semantics)"
            )
        self._last_time = int(batch["time"].max())
        self._held.append(batch)
        q0 = self.workload[0]
        # Window w ends at w * slide + within - 1; later events cannot
        # fall in it once the stream has passed that time.
        closed = (self._last_time - q0.within + 1) // q0.slide + 1
        if closed <= self._open:
            return
        held = pd.concat(self._held)
        t = held["time"].to_numpy()
        # Count the closed windows only if some held event is in one.
        lo, hi = window_span(
            t, within=q0.within, slide=q0.slide, first=self._open, stop=closed
        )
        if (lo <= hi).any():
            self._emitted.append(self._counts(held, stop=closed))
        self._held = [held[t >= closed * q0.slide]]
        self._open = closed

    def _counts(self, held: pd.DataFrame, stop: int | None = None) -> pd.DataFrame:
        """Counts of windows ``open <= wid < stop`` over the held events,
        evaluating only those windows' rows."""
        counts, _ = run_plan_pandas(
            held, self.workload, None, first=self._open, stop=stop
        )
        return counts

    def results(self) -> pd.DataFrame:
        """Emitted counts plus the current counts of the open windows.
        Changes no state."""
        if not self._held:
            return pd.DataFrame(columns=["wid", "key", "qid", "cnt"], dtype=np.int64)
        open_counts = self._counts(pd.concat(self._held))
        return pd.concat([*self._emitted, open_counts], ignore_index=True)

    @property
    def n_state_counters(self) -> int:
        """Online memory footprint: the events held for open windows."""
        return sum(len(b) for b in self._held)


def time_chunks(events: pd.DataFrame, n_chunks: int):
    """Split a stream into ~equal chunks on timestamp boundaries (ties
    never straddle a boundary, preserving strict-time semantics)."""
    times = np.sort(events["time"].unique())
    bounds = np.array_split(times, max(1, n_chunks))
    for b in bounds:
        if len(b) == 0:
            continue
        yield events[(events["time"] >= b[0]) & (events["time"] <= b[-1])]
