"""Closed- and open-loop replay of a stream through the micro-batch driver."""
from __future__ import annotations

import time

import pandas as pd

from repro.core.model import Workload
from repro.runtime.streaming import MicroBatchExecutor


def closed_loop(workload: Workload, batches: list[pd.DataFrame]) -> pd.DataFrame:
    """Feed ``batches`` back to back through a fresh executor."""
    ex = MicroBatchExecutor(workload)
    for b in batches:
        ex.process_batch(b)
    return ex.results()


class OpenLoop:
    """Replays the stream's micro-batches at a fixed offered rate.

    Batches arrive on a schedule whatever the executor's speed: a batch
    is due when its last event would have arrived at ``rate`` events/s,
    and its latency runs from that moment to the return of
    ``process_batch``. The replay runs in segments so that other
    measurements can interleave; each segment's schedule starts when the
    segment does. A finished pass over all batches is kept for checking
    (outside any timed region) and a new pass begins.
    """

    def __init__(self, workload: Workload, batches: list[pd.DataFrame], rate: float):
        self.workload = workload
        self.batches = batches
        self.rate = rate
        self.latency_s: list[float] = []
        self.lag_s: list[float] = []
        self.process_s: list[float] = []
        self.finished: list[MicroBatchExecutor] = []
        self.pass_state_counters = 0  # carried counters after the last full pass
        self._ex = MicroBatchExecutor(workload)
        self._next = 0

    def run(self, n: int) -> None:
        """Process the next ``n`` batches on a schedule starting now."""
        due = time.perf_counter()
        for _ in range(n):
            batch = self.batches[self._next]
            due += len(batch) / self.rate
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            start = time.perf_counter()
            self._ex.process_batch(batch)
            end = time.perf_counter()
            self.latency_s.append(end - due)
            self.lag_s.append(max(0.0, start - due))
            self.process_s.append(end - start)
            self._next += 1
            if self._next == len(self.batches):
                self.pass_state_counters = self._ex.n_state_counters
                self.finished.append(self._ex)
                self._ex = MicroBatchExecutor(self.workload)
                self._next = 0

    def take_finished(self) -> list[MicroBatchExecutor]:
        done, self.finished = self.finished, []
        return done
