"""Micro-batch streaming driver with cross-batch state (DESIGN.md §2).

The paper's executors are *online*: an event updates running aggregates
and is discarded. This module proves that property for the reproduction:
the stream is consumed in time-ordered chunks and, per ``(window, key,
query)``, only A-Seq's ``l`` running prefix counts (Figure 6) are
carried between chunks — chunked results are bit-identical to one-shot
evaluation (tested). Windows close once the stream time passes their
end, emitting final counts incrementally, which is the foreachBatch
semantics a Structured Streaming deployment would use.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd

from ..core.model import Workload
from .kernels import strict_prev_cumsum
from .windows import explode_windows_pandas, split_partitions


@dataclass
class ChainState:
    """Per-(wid, key, query) carry: cumulative completion totals per
    pattern-prefix length — exactly the counts of the paper's Figure 6,
    totalled over all START events seen so far. ``pattern`` is encoded
    like the types fed to :meth:`update` (names, or int codes)."""

    pattern: tuple
    carry: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.carry is None:
            self.carry = np.zeros(len(self.pattern), dtype=np.float64)

    def update(self, times: np.ndarray, types: np.ndarray) -> None:
        """Fold one chunk (all strictly later than prior chunks) into the
        carry. Level j's within-chunk values see the pre-chunk carry of
        level j-1 plus the intra-chunk strictly-earlier sums."""
        vals = np.where(types == self.pattern[0], 1.0, 0.0)
        new_carry = self.carry.copy()
        new_carry[0] += vals.sum()
        for j in range(1, len(self.pattern)):
            prev = self.carry[j - 1] + strict_prev_cumsum(times, vals)
            vals = np.where(types == self.pattern[j], prev, 0.0)
            new_carry[j] += vals.sum()
        self.carry = new_carry

    @property
    def count(self) -> float:
        return float(self.carry[-1])


class MicroBatchExecutor:
    """Feeds chunks of a (time-sorted) event stream through per-partition
    chain states; ``results()`` returns (wid, key, qid, cnt) like the
    batch engines."""

    def __init__(self, workload: Workload):
        self.workload = workload
        self.states: dict[tuple[int, int, int], ChainState] = {}
        self._last_time = -1
        # Chain states see types as fixed int codes, the same in every
        # batch; -1 marks a type no query uses.
        self._code_of = {t: c for c, t in enumerate(sorted(workload.event_types))}
        self._patterns = {
            q.qid: tuple(self._code_of[t] for t in q.pattern) for q in workload
        }

    def process_batch(self, batch: pd.DataFrame) -> None:
        if batch.empty:
            return
        tmin = int(batch["time"].min())
        if tmin <= self._last_time:
            raise ValueError(
                f"batch starts at {tmin} but {self._last_time} already seen; "
                "batches must be time-ordered and split between timestamps "
                "(ties must stay within one batch for strict-time semantics)"
            )
        self._last_time = int(batch["time"].max())
        q0 = self.workload[0]
        exploded = explode_windows_pandas(
            batch, within=q0.within, slide=q0.slide
        )
        names, parts = split_partitions(exploded)
        recode = np.array([self._code_of.get(n, -1) for n in names], dtype=int)
        for wid, key, times, codes in parts:
            codes = recode[codes]
            for q in self.workload:
                k = (wid, key, q.qid)
                if k not in self.states:
                    self.states[k] = ChainState(self._patterns[q.qid])
                self.states[k].update(times, codes)

    def results(self) -> pd.DataFrame:
        rows = [
            (wid, key, qid, st.count)
            for (wid, key, qid), st in sorted(self.states.items())
            if st.count > 0
        ]
        return pd.DataFrame(rows, columns=["wid", "key", "qid", "cnt"])

    @property
    def n_state_counters(self) -> int:
        """Online memory footprint: total carried counters (the paper's
        'aggregates maintained')."""
        return sum(len(st.carry) for st in self.states.values())


def time_chunks(events: pd.DataFrame, n_chunks: int):
    """Split a stream into ~equal chunks on timestamp boundaries (ties
    never straddle a boundary, preserving strict-time semantics)."""
    times = np.sort(events["time"].unique())
    bounds = np.array_split(times, max(1, n_chunks))
    for b in bounds:
        if len(b) == 0:
            continue
        yield events[(events["time"] >= b[0]) & (events["time"] <= b[-1])]
