"""Peak-memory model for the executors (paper Section 8.1 "Metrics").

The paper measures "the maximal memory for storing aggregates, events
and event sequences". Process RSS of a JVM is not comparable to a Spark
driver, so the reproduction counts exactly those objects, from the
paper's own data structures:

- Non-Shared (A-Seq): each query keeps one count per pattern prefix per
  not-expired START event -> ``starts(E1) * length(P)`` aggregates per
  query per window (Section 3.2).
- Shared (Sharon): each shared pattern keeps its per-START-event counts
  once (``starts(Em) * length(p)``); each query adds its prefix/suffix
  chains plus one combination count per START event pair boundary
  (Section 3.3).
- Two-step engines additionally store every constructed event sequence.
  Their expected count (:func:`expected_sequences`) sizes Fig 13's DNF
  guard; no figure reports it as memory.

``kernel state bytes`` reported by the executors (C-matrix + completion
vectors actually allocated) are returned alongside for transparency.
"""
from __future__ import annotations

import math
from typing import Callable

from ..core.cost import CostModel
from ..core.model import SharingCandidate, Workload
from .sharon import compile_plan

_AGG_BYTES = 8  # one int64 count


def aseq_aggregates(workload: Workload, cost: CostModel) -> float:
    """Modeled aggregate count for the Non-Shared method, per window."""
    total = 0.0
    for q in workload:
        total += cost.rate(q.pattern[0]) * len(q.pattern)
    return total


def sharon_aggregates(
    workload: Workload, cost: CostModel, plan: list[SharingCandidate]
) -> float:
    """Modeled aggregate count for the Sharon executor under a plan."""
    total = 0.0
    for cand in plan:
        total += cost.rate(cand.p[0]) * len(cand.p)  # shared chain, once
    for segments in compile_plan(workload, plan).values():
        for pattern, shared in segments:
            if shared:
                total += cost.rate(pattern[0])  # combination counts
            else:
                total += cost.rate(pattern[0]) * len(pattern)
    return total


def expected_sequences(pattern: tuple[str, ...], rate: Callable[[str], float]) -> float:
    """Expected matches of ``pattern`` among events that arrive at
    ``rate(type)`` per window in uniformly random order: prod(rate) / l!,
    the l! orderings of l chosen events of which one matches."""
    seqs = 1.0
    for t in pattern:
        seqs *= rate(t)
    return seqs / math.factorial(len(pattern))


def aggregates_to_bytes(n_aggregates: float) -> float:
    return n_aggregates * _AGG_BYTES
