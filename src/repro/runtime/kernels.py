"""Vectorized event sequence aggregation kernels (numpy).

The paper's executor maintains counts per pattern prefix and per START
event (Section 3.2-3.3, Figures 6-7). Vectorized over one
``(window, key)`` partition sorted by time — and *sparse in event
types*: every operation touches only events whose types occur in the
pattern at hand, so kernel cost is proportional to the paper's matched
rates (Eqs 2 and 7), not to partition size:

- :func:`chain_counts` / the sparse chain inside :func:`eval_query` is
  A-Seq's recurrence ``count_j(t) = sum over events e<=t of type E_j of
  count_{j-1}(e-)`` — ``l`` masked strict-time cumulative sums
  (Example 1). Cost ``O(Rate(P))`` per query: the paper's Eq 2 shape.
- :func:`c_matrix` is the Shared method's per-START-event count table:
  ``C[s, e]`` = number of p-sequences starting at START event ``s`` and
  ending at END event ``e`` (the ``count(c3, D)``/``count(c7, D)`` rows
  of Figure 7). Cost ``O(Rate(Em) x Rate(p))`` — Eq 7's shared term —
  and it is computed **once** per shared pattern per partition and
  reused by every query sharing it.
- :func:`eval_query` composes a query's compiled segments: residual
  segments run seeded chains, shared segments multiply the running
  prefix snapshot into ``C`` (Example 3's ``count(A,B) x count(c3,D)``)
  — the bilinear combination whose per-query cost Eq 5 models.

Counts are float64: sequence counts are combinatorial and float64 sums
of products stay exact below 2^53. Timestamps may tie; sequence
semantics require *strictly* increasing time, which every helper
enforces by value (``searchsorted`` on times), never by row position.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import pandas as pd


def strict_prev_cumsum(times: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """out[i] = sum of vals[j] over events with times[j] < times[i].

    ``times`` must be sorted ascending (ties allowed).
    """
    cs = np.cumsum(vals)
    idx = np.searchsorted(times, times, side="left")
    out = np.zeros(len(vals), dtype=np.float64)
    nz = idx > 0
    out[nz] = cs[idx[nz] - 1]
    return out


def _carry_strict(
    src_times: np.ndarray, src_vals: np.ndarray, dst_times: np.ndarray
) -> np.ndarray:
    """For each dst time: sum of src_vals at strictly earlier src times.
    Both time arrays sorted ascending."""
    if len(src_times) == 0:
        return np.zeros(len(dst_times), dtype=np.float64)
    cs = np.cumsum(src_vals)
    pos = np.searchsorted(src_times, dst_times, side="left")
    out = np.zeros(len(dst_times), dtype=np.float64)
    nz = pos > 0
    out[nz] = cs[pos[nz] - 1]
    return out


class TypeIndex:
    """Per-partition index: for each event type, the sorted times (and
    original positions) of its events. Built once per partition and
    shared by every query — the executor's event store.

    ``types`` holds either type names, or int codes into ``names`` (the
    executors encode a stream's types once, so no partition argsorts
    strings). Either way the index is keyed by type name."""

    def __init__(
        self,
        times: np.ndarray,
        types: np.ndarray,
        names: Sequence[str] | None = None,
    ):
        self.times = times
        self.n = len(times)
        self._by_type: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        if self.n == 0:
            return
        if names is None:
            types, names = pd.factorize(types, use_na_sentinel=False)
        order = np.argsort(types, kind="stable")
        sorted_codes = types[order]
        bounds = np.flatnonzero(
            np.r_[True, sorted_codes[1:] != sorted_codes[:-1], True]
        )
        for a, b in zip(bounds[:-1], bounds[1:]):
            # A stable argsort lists each type's positions ascending.
            pos = order[a:b]
            self._by_type[str(names[sorted_codes[a]])] = (times[pos], pos)

    def times_of(self, t: str) -> np.ndarray:
        return self._by_type.get(t, (np.empty(0, dtype=self.times.dtype), None))[0]

    def positions_of(self, t: str) -> np.ndarray:
        entry = self._by_type.get(t)
        return entry[1] if entry is not None else np.empty(0, dtype=np.int64)


def _sparse_chain(
    index: TypeIndex,
    pattern: tuple[str, ...],
    seeds: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Chain over the pattern touching only its own types. Returns
    (completion_times, completion_counts) at last-type events. ``seeds``
    aligns with the first type's events (default 1 per START event)."""
    t_prev = index.times_of(pattern[0])
    v_prev = (
        np.ones(len(t_prev), dtype=np.float64) if seeds is None else seeds
    )
    for ty in pattern[1:]:
        t_cur = index.times_of(ty)
        v_prev = _carry_strict(t_prev, v_prev, t_cur)
        t_prev = t_cur
    return t_prev, v_prev


def chain_counts(
    times: np.ndarray,
    types: np.ndarray,
    pattern: tuple[str, ...],
    seeds: np.ndarray | None = None,
) -> np.ndarray:
    """Completion counts of ``pattern`` at each event of the partition
    (nonzero only at events of the last type). ``seeds`` is a full
    partition-length vector read at pattern[0] events."""
    index = TypeIndex(times, types)
    start_pos = index.positions_of(pattern[0])
    s = seeds[start_pos] if seeds is not None else None
    _, v = _sparse_chain(index, pattern, s)
    out = np.zeros(len(times), dtype=np.float64)
    end_pos = index.positions_of(pattern[-1])
    out[end_pos] = v
    return out


def count_pattern(
    times: np.ndarray, types: np.ndarray, pattern: tuple[str, ...]
) -> float:
    """COUNT(*) of ``pattern`` in one partition — the Non-Shared method."""
    index = TypeIndex(times, types)
    _, v = _sparse_chain(index, pattern)
    return float(v.sum())


def _sparse_c_matrix(
    index: TypeIndex, pattern: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(start_times, end_times, C) with C[s, e] = p-sequences from START
    event s ending at END event e. Cost O(Rate(Em) x Rate(p))."""
    t_starts = index.times_of(pattern[0])
    s = len(t_starts)
    t_prev = t_starts
    v_prev = np.eye(s, dtype=np.float64)
    for ty in pattern[1:]:
        t_cur = index.times_of(ty)
        if s == 0 or len(t_cur) == 0:
            t_prev, v_prev = t_cur, np.zeros((s, len(t_cur)))
            continue
        cs = np.cumsum(v_prev, axis=1)
        pos = np.searchsorted(t_prev, t_cur, side="left")
        v_cur = np.zeros((s, len(t_cur)), dtype=np.float64)
        nz = pos > 0
        v_cur[:, nz] = cs[:, pos[nz] - 1]
        t_prev, v_prev = t_cur, v_cur
    return t_starts, t_prev, v_prev


def c_matrix(
    times: np.ndarray, types: np.ndarray, pattern: tuple[str, ...]
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dense-index facade over :func:`_sparse_c_matrix`: returns
    (start_positions, end_positions, C) with positions into the full
    partition arrays."""
    index = TypeIndex(times, types)
    _, _, c = _sparse_c_matrix(index, pattern)
    return (
        index.positions_of(pattern[0]),
        index.positions_of(pattern[-1]),
        c,
    )


@dataclass(frozen=True)
class Segment:
    """One piece of a query's compiled evaluation: a contiguous
    sub-pattern, either evaluated privately (chain) or looked up in the
    shared-pattern cache (C-matrix combination)."""

    pattern: tuple[str, ...]
    shared: bool


def compile_segments(
    query_pattern: tuple[str, ...], shared_patterns: list[tuple[str, ...]]
) -> list[Segment]:
    """Split a query pattern into residual/shared segments.

    ``shared_patterns`` are the plan's patterns this query shares. A
    valid plan never assigns overlapping patterns to one query
    (Definition 7), so occurrences partition cleanly; the leftmost
    occurrence is used (types occur once per pattern — Assumption 3).
    """
    spans: list[tuple[int, int, tuple[str, ...]]] = []
    for p in shared_patterns:
        n, l = len(query_pattern), len(p)
        pos = next(
            (i for i in range(n - l + 1) if query_pattern[i : i + l] == p), -1
        )
        if pos < 0:
            raise ValueError(f"{p} not in {query_pattern}")
        spans.append((pos, pos + l, p))
    spans.sort()
    for (_, e1, p1), (s2, _, p2) in zip(spans, spans[1:]):
        if s2 < e1:
            raise ValueError(f"overlapping shared patterns {p1} and {p2}")
    segments: list[Segment] = []
    cur = 0
    for s, e, p in spans:
        if cur < s:
            segments.append(Segment(query_pattern[cur:s], shared=False))
        segments.append(Segment(p, shared=True))
        cur = e
    if cur < len(query_pattern):
        segments.append(Segment(query_pattern[cur:], shared=False))
    return segments


def _carry_strict_after(
    src_times: np.ndarray, src_vals: np.ndarray, dst_times: np.ndarray
) -> np.ndarray:
    """For each dst time: sum of src_vals at strictly *later* src times."""
    if len(src_times) == 0:
        return np.zeros(len(dst_times), dtype=np.float64)
    cs = np.cumsum(src_vals)
    total = cs[-1]
    pos = np.searchsorted(src_times, dst_times, side="right")
    out = np.full(len(dst_times), total, dtype=np.float64)
    nz = pos > 0
    out[nz] -= cs[pos[nz] - 1]
    return out


def _sparse_reverse_chain(
    index: TypeIndex, pattern: tuple[str, ...]
) -> np.ndarray:
    """n_p(s): number of p-sequences *starting* at each START event of p
    (Figure 7's per-START-event counts), via a backward chain — cost
    O(Rate(p)), no per-end breakdown."""
    t_next = index.times_of(pattern[-1])
    v_next = np.ones(len(t_next), dtype=np.float64)
    for ty in reversed(pattern[:-1]):
        t_cur = index.times_of(ty)
        v_next = _carry_strict_after(t_next, v_next, t_cur)
        t_next = t_cur
    return v_next


class SharedCache:
    """Per-partition state shared by all queries: the TypeIndex (event
    store) plus, per shared pattern, whichever aggregate the sharing
    positions need — each built once (the Shared method's 'p is
    processed once for all queries in Q_p').

    Three shared aggregates mirror the factor structure of Eq 5:

    - ``get_forward``: unit-seed completions per END event — suffices
      when p *starts* a query (every query sees the same seeds). Linear.
    - ``get_reverse``: n_p per START event — suffices when p *ends* a
      query (only the total is needed downstream). Linear.
    - ``get`` (C-matrix): full per-(START, END) table — needed when p
      sits mid-query, the case whose combination cost the paper models
      as the three-factor product. O(Rate(Em) x Rate(p)).
    """

    def __init__(
        self,
        times: np.ndarray,
        types: np.ndarray,
        names: Sequence[str] | None = None,
    ):
        self.index = TypeIndex(times, types, names)
        self._c: dict[tuple[str, ...], tuple] = {}
        self._fwd: dict[tuple[str, ...], tuple] = {}
        self._rev: dict[tuple[str, ...], np.ndarray] = {}
        self.builds = 0
        self.state_bytes = 0

    def get(self, pattern: tuple[str, ...]):
        if pattern not in self._c:
            entry = _sparse_c_matrix(self.index, pattern)
            self._c[pattern] = entry
            self.builds += 1
            self.state_bytes += entry[2].nbytes
        return self._c[pattern]

    def get_forward(self, pattern: tuple[str, ...]):
        if pattern not in self._fwd:
            entry = _sparse_chain(self.index, pattern)
            self._fwd[pattern] = entry
            self.builds += 1
            self.state_bytes += entry[1].nbytes
        return self._fwd[pattern]

    def get_reverse(self, pattern: tuple[str, ...]) -> np.ndarray:
        if pattern not in self._rev:
            v = _sparse_reverse_chain(self.index, pattern)
            self._rev[pattern] = v
            self.builds += 1
            self.state_bytes += v.nbytes
        return self._rev[pattern]


def eval_query(
    times: np.ndarray,
    types: np.ndarray,
    segments: list[Segment],
    cache: SharedCache | None = None,
) -> float:
    """COUNT(*) for one query, composing segments left to right.

    The running state is the sparse list of (completion_time, count)
    of the pattern-so-far; each segment consumes the strictly-before
    running totals at its START events (the paper's snapshot semantics)
    and produces new completions.
    """
    if cache is None:
        cache = SharedCache(times, types)
    index = cache.index
    t_comp: np.ndarray | None = None  # None => empty pattern (count 1 always)
    v_comp: np.ndarray | None = None
    for pos, seg in enumerate(segments):
        first, last = pos == 0, pos == len(segments) - 1
        if seg.shared and first:
            # Same unit seeds for every query: reuse the shared forward
            # chain (linear).
            t_comp, v_comp = cache.get_forward(seg.pattern)
            continue
        t_starts = index.times_of(seg.pattern[0])
        if t_comp is None:
            before = np.ones(len(t_starts), dtype=np.float64)
        else:
            before = _carry_strict(t_comp, v_comp, t_starts)
        if not seg.shared:
            t_comp, v_comp = _sparse_chain(index, seg.pattern, before)
        elif last:
            # Only the total survives: dot with the shared per-START
            # counts n_p (linear) — Example 3's multiplication.
            return float(before @ cache.get_reverse(seg.pattern))
        else:
            # Mid-query sharing needs per-END completions: the C-matrix
            # combination (the paper's three-factor Comb cost).
            _, t_ends, c = cache.get(seg.pattern)
            t_comp, v_comp = t_ends, before @ c
    assert v_comp is not None, "query with no segments"
    return float(v_comp.sum())


def brute_force_count(
    times: np.ndarray, types: np.ndarray, pattern: tuple[str, ...]
) -> float:
    """Reference oracle: O(n^l) dynamic program over raw events, written
    independently of the chain trick (used only in tests on tiny data).
    """
    n = len(times)
    # dp[j][i]: sequences of pattern[:j+1] ending exactly at event i.
    dp = [
        1.0 if types[i] == pattern[0] else 0.0 for i in range(n)
    ]
    for j in range(1, len(pattern)):
        nxt = [0.0] * n
        for i in range(n):
            if types[i] != pattern[j]:
                continue
            nxt[i] = sum(dp[k] for k in range(n) if times[k] < times[i])
        dp = nxt
    return float(sum(dp))
