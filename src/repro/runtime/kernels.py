"""Vectorized event sequence aggregation kernels (numpy).

The paper's executor maintains counts per pattern prefix and per START
event (Section 3.2-3.3, Figures 6-7). Here every kernel runs over *all*
``(window, key)`` partitions of a stream at once, and is *sparse in
event types*: an operation touches only events whose types occur in the
pattern at hand, so kernel cost follows the paper's matched rates
(Eqs 2 and 7), not partition sizes.

**One-pass layout.** :class:`TypeIndex` sorts the rows once by
``(type, partition, time)``. Each type's events are then one run of
composite keys ``pid * span + (time - tmin)``, ascending in
``(partition, time)``, with the offsets where each partition starts.
A *carry* moves per-event values of one type to the events of another:
with ``csp`` the zero-padded cumulative sum of the source values and
``pos`` the ``searchsorted`` of each target key among the source keys,
the strictly-earlier sum inside the target's partition ``p`` is
``csp[pos] - csp[start_p]`` and the strictly-later one
``csp[end_p] - csp[pos]``. So a chain level is one cumsum and two
gathers over all partitions, never a loop over partitions.

- The A-Seq chain (Example 1): ``count_j(e) = sum of count_{j-1}(e')``
  over events ``e'`` of type ``E_{j-1}`` strictly before ``e``; ``l - 1``
  forward carries per query. Cost ``O(Rate(P))``: Eq 2's shape.
- Shared aggregates (:class:`SharedCache`), each built **once per pass**
  for every partition and reused by every query sharing the pattern:
  the forward chain (p starts a query), the reverse chain ``n_p(s)``
  (p ends a query), and the C-matrix ``C[s, e]`` = p-sequences from
  START ``s`` to END ``e`` (p sits mid-query; Figure 7's
  ``count(c3, D)`` rows). The C-matrix is block-diagonal over
  partitions; only the blocks are stored, flattened.
- :func:`eval_query` / :func:`count_queries` compose a query's compiled
  segments (Example 3's ``count(A,B) x count(c3,D)``) and end with one
  total per partition, again a ``csp`` difference at partition bounds.

**Counts are exact int64.** The kernels do only ring operations
(``+``, ``-``, ``*``), so int64 arithmetic that wraps modulo 2^64 still
yields every final count modulo 2^64, and the count exactly whenever it
is below 2^63. The product of a query's per-type partition sizes bounds
its count there; it is computed in float64 from the sizes the sort
yields. Partitions whose bound reaches 2^63 are re-run in Python ints
(object arrays) through the same kernels; a count that is still
>= 2^63 raises :class:`OverflowError`. Nothing wraps silently.

Timestamps may tie; sequence semantics require *strictly* increasing
time, which every carry enforces by key value, never by row position.
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
import pandas as pd

# Counts whose per-type size bound reaches this are recomputed in Python
# ints. The bound is a float64 product of exact integers; each factor
# adds at most 2^-53 relative error, so the slack keeps a float bound
# just under 2^63 from hiding an exact product at or above it.
_INT64_SAFE = 2.0**63 * (1 - 2.0**-40)


def _csum0(vals: np.ndarray) -> np.ndarray:
    """Zero-padded cumulative sum: out[i] = sum of vals[:i]."""
    out = np.zeros(len(vals) + 1, dtype=vals.dtype)
    vals.cumsum(out=out[1:])
    return out


def _ragged(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenated ranges ``starts[i] .. starts[i] + lengths[i] - 1``."""
    run0 = np.cumsum(lengths) - lengths
    return np.repeat(starts - run0, lengths) + np.arange(lengths.sum())


class TypeEvents(NamedTuple):
    """One event type's events over all partitions, ordered by
    ``(partition, time)``: composite ``keys``, partition ids ``pids``,
    row positions ``pos`` in the index's input, and ``bounds`` (length
    P + 1): partition p's events are ``bounds[p]:bounds[p + 1]``."""

    keys: np.ndarray
    pids: np.ndarray
    pos: np.ndarray
    bounds: np.ndarray


class TypeIndex:
    """The event store of P ``(window, key)`` partitions, shared by every
    query: each type's events as one run sorted by ``(partition, time)``.

    ``types`` holds either type names, or int codes into ``names`` (the
    executors encode a stream's types once). ``pids`` gives each row's
    partition (default: one partition); within a partition rows must be
    in ascending time order, while rows of different partitions may
    interleave. Ties keep input order."""

    def __init__(
        self,
        times: np.ndarray,
        types: np.ndarray,
        names: Sequence[str] | None = None,
        *,
        pids: np.ndarray | None = None,
        n_parts: int = 1,
    ):
        if names is None:
            types, names = pd.factorize(types, use_na_sentinel=False)
        n = len(times)
        if pids is None:
            pids = np.zeros(n, dtype=np.int64)
        self.times, self.codes, self.pids = times, types, pids
        self.names = [str(t) for t in names]
        self.n_parts = n_parts
        self._code = {t: c for c, t in enumerate(self.names)}
        tmin = int(times.min()) if n else 0
        span = int(times.max()) - tmin + 1 if n else 1
        if n_parts * span >= 2**62:
            raise ValueError(
                f"{n_parts} partitions x time span {span} overflow int64 keys"
            )
        T, P = len(self.names), n_parts
        slot = np.asarray(types, dtype=np.int64) * P + pids
        # A stable sort by (type, partition) keeps each partition's rows
        # in time order; small codes sort by radix.
        order = np.argsort(
            slot.astype(np.min_scalar_type(max(T * P - 1, 0))), kind="stable"
        )
        self._order, self._pids = order, pids[order]
        self._keys = self._pids * span + (times[order] - tmin)
        sizes = np.bincount(slot, minlength=T * P).reshape(T, P)
        self._cuts = np.concatenate(([0], np.cumsum(sizes)))
        self._by_type: dict[str, TypeEvents] = {}
        self._empty = TypeEvents(
            self._keys[:0], pids[:0], order[:0], np.zeros(P + 1, dtype=np.int64)
        )
        # Per-type partition sizes, a zero row last for absent types.
        self._sizes = np.vstack([sizes, np.zeros((1, P))]).astype(np.float64)
        self.n_rows_max = int(sizes.sum(axis=0).max()) if P else 0
        self._links: dict[tuple[str, str, bool], tuple] = {}

    def of(self, t: str) -> TypeEvents:
        """Type t's events (empty for a type with no code); each type's
        view is cut out of the sorted rows when first asked for."""
        entry = self._by_type.get(t)
        if entry is None:
            c = self._code.get(t)
            if c is None:
                return self._empty
            bounds = self._cuts[c * self.n_parts : (c + 1) * self.n_parts + 1]
            a, b = int(bounds[0]), int(bounds[-1])
            entry = self._by_type[t] = TypeEvents(
                self._keys[a:b], self._pids[a:b], self._order[a:b], bounds - a
            )
        return entry

    def size_bound(self, pattern: Sequence[str]) -> np.ndarray:
        """Per partition: the product of the pattern's per-type event
        counts, an upper bound on its sequence count (float64)."""
        rows = [self._code.get(t, len(self.names)) for t in pattern]
        return self._sizes[rows].prod(axis=0)

    def link(
        self, src: str, dst: str, after: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(hi, lo)`` per ``dst`` event: the ``src`` events of its
        partition strictly before it (``after``: strictly after it) are
        those at ``lo:hi``. They depend only on the two types, so every
        query with this pair of adjacent types reuses them."""
        link = self._links.get((src, dst, after))
        if link is None:
            s, d = self.of(src), self.of(dst)
            if after:
                pos = np.searchsorted(s.keys, d.keys, side="right")
                link = (s.bounds[d.pids + 1], pos)
            else:
                pos = np.searchsorted(s.keys, d.keys, side="left")
                link = (pos, s.bounds[d.pids])
            self._links[(src, dst, after)] = link
        return link

    def carry(
        self, src: str, vals: np.ndarray, dst: str, after: bool = False
    ) -> np.ndarray:
        """For each ``dst`` event: the sum of ``vals`` (aligned with the
        ``src`` events) over the ``src`` events :meth:`link` gives it."""
        hi, lo = self.link(src, dst, after)
        csp = _csum0(vals)
        return csp[hi] - csp[lo]

    def totals(self, t: str, vals: np.ndarray) -> np.ndarray:
        """Per-partition sums of ``vals`` (aligned with type t's events)."""
        b = self.of(t).bounds
        csp = _csum0(vals)
        return csp[b[1:]] - csp[b[:-1]]


def _chain(
    index: TypeIndex, pattern: tuple[str, ...], seeds: np.ndarray
) -> np.ndarray:
    """Forward chain over the pattern's own types: completion counts at
    the last type's events, from ``seeds`` at the first type's events."""
    vals = seeds
    for src, dst in zip(pattern, pattern[1:]):
        vals = index.carry(src, vals, dst)
    return vals


def _reverse_chain(
    index: TypeIndex, pattern: tuple[str, ...], dtype
) -> np.ndarray:
    """n_p(s): number of p-sequences *starting* at each START event of p
    (Figure 7's per-START-event counts), via a backward chain."""
    vals = np.ones(len(index.of(pattern[-1]).keys), dtype=dtype)
    for dst, src in zip(pattern[-2::-1], pattern[:0:-1]):
        vals = index.carry(src, vals, dst, after=True)
    return vals


@dataclass(frozen=True)
class CBlocks:
    """The C-matrix of a pattern, block-diagonal over partitions, stored
    column by column: END event e's column holds one entry per START
    event of its partition, ``vals[cols[e]:cols[e + 1]]``, whose START
    events are ``rows[cols[e]:cols[e + 1]]``."""

    vals: np.ndarray
    rows: np.ndarray
    cols: np.ndarray

    def combine(self, before: np.ndarray) -> np.ndarray:
        """``before @ C`` per partition: completions at each END event
        from per-START-event seeds."""
        csp = _csum0(before[self.rows] * self.vals)
        return csp[self.cols[1:]] - csp[self.cols[:-1]]


def _c_blocks(index: TypeIndex, pattern: tuple[str, ...], dtype) -> CBlocks:
    """C[s, e] = p-sequences from START s to END e of the same partition.
    Cost O(Rate(Em) x Rate(p)). Level j keeps, for every START event s,
    one row over the level's events in s's partition, flattened."""
    starts = index.of(pattern[0])
    home = starts.pids  # each START event's partition
    n_starts = np.arange(len(starts.keys))

    def layout(level: TypeEvents):
        """(row, column) of each entry, and where each row starts."""
        width = np.diff(level.bounds)[home]
        rows = np.repeat(n_starts, width)
        return rows, _ragged(level.bounds[home], width), np.cumsum(width) - width

    rows, cols, offset = layout(starts)
    vals = np.where(rows == cols, 1, 0).astype(dtype)  # identity
    for src, dst in zip(pattern, pattern[1:]):
        hi, lo = index.link(src, dst)
        local = hi - lo  # earlier src events in each dst event's row
        csp = _csum0(vals)
        rows, cols, row0 = layout(index.of(dst))
        vals = csp[offset[rows] + local[cols]] - csp[offset[rows]]
        offset = row0
    by_col = np.argsort(cols, kind="stable")
    height = np.diff(starts.bounds)[index.of(pattern[-1]).pids]
    return CBlocks(vals[by_col], rows[by_col], _csum0(height))


class SharedCache:
    """State shared by all queries of one pass: the TypeIndex (event
    store) plus, per shared pattern, whichever aggregate the sharing
    positions need, each built once for all partitions (the Shared
    method's 'p is processed once for all queries in Q_p').

    Three shared aggregates mirror the factor structure of Eq 5:

    - ``get_forward``: unit-seed completions per END event — suffices
      when p *starts* a query (every query sees the same seeds). Linear.
    - ``get_reverse``: n_p per START event — suffices when p *ends* a
      query (only the total is needed downstream). Linear.
    - ``get`` (C-matrix): per-(START, END) blocks — needed when p sits
      mid-query, the case whose combination cost the paper models as
      the three-factor product. O(Rate(Em) x Rate(p)).

    ``dtype`` is int64, or ``object`` for exact Python-int counts.
    """

    def __init__(
        self,
        times: np.ndarray,
        types: np.ndarray,
        names: Sequence[str] | None = None,
        *,
        pids: np.ndarray | None = None,
        n_parts: int = 1,
        dtype=np.int64,
    ):
        self.index = TypeIndex(times, types, names, pids=pids, n_parts=n_parts)
        self.dtype = dtype
        self._built: dict[tuple[str, tuple[str, ...]], object] = {}
        self.builds = 0
        self.builds_by_kind: Counter = Counter()
        self.state_bytes = 0

    def _get(self, kind: str, pattern: tuple[str, ...], build, nbytes):
        entry = self._built.get((kind, pattern))
        if entry is None:
            entry = self._built[(kind, pattern)] = build()
            self.builds += 1
            self.builds_by_kind[kind] += 1
            self.state_bytes += nbytes(entry)
        return entry

    def get(self, pattern: tuple[str, ...]) -> CBlocks:
        return self._get(
            "cmatrix", pattern,
            lambda: _c_blocks(self.index, pattern, self.dtype),
            lambda c: c.vals.nbytes,
        )

    def get_forward(self, pattern: tuple[str, ...]) -> np.ndarray:
        return self._get(
            "forward", pattern,
            lambda: _chain(self.index, pattern, self._ones(pattern[0])),
            lambda v: v.nbytes,
        )

    def get_reverse(self, pattern: tuple[str, ...]) -> np.ndarray:
        return self._get(
            "reverse", pattern,
            lambda: _reverse_chain(self.index, pattern, self.dtype),
            lambda v: v.nbytes,
        )

    def _ones(self, t: str) -> np.ndarray:
        """Unit seeds at every event of type t."""
        return np.ones(len(self.index.of(t).keys), dtype=self.dtype)

    def exact(self, parts: np.ndarray) -> SharedCache:
        """A Python-int cache over partitions ``parts`` (ascending),
        renumbered 0 .. len(parts) - 1."""
        ix = self.index
        rows = np.isin(ix.pids, parts)
        return SharedCache(
            ix.times[rows], ix.codes[rows], ix.names,
            pids=np.searchsorted(parts, ix.pids[rows]),
            n_parts=len(parts), dtype=object,
        )


class Segment(NamedTuple):
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


def _query_totals(cache: SharedCache, segments: list[Segment]) -> np.ndarray:
    """One query's COUNT(*) per partition, composing segments left to
    right in the cache's dtype (int64 results are exact modulo 2^64).

    The running state is the count of the pattern-so-far completed at
    each event of its last type; each segment consumes the
    strictly-before running totals at its START events (the paper's
    snapshot semantics) and produces new completions."""
    index = cache.index
    comp = None  # (last type, completions); None => empty pattern so far
    for pos, seg in enumerate(segments):
        first, last = seg.pattern[0], seg.pattern[-1]
        if seg.shared and pos == 0:
            # Same unit seeds for every query: reuse the shared forward
            # chain (linear).
            comp = (last, cache.get_forward(seg.pattern))
            continue
        if comp is None:
            before = cache._ones(first)
        else:
            before = index.carry(comp[0], comp[1], first)
        if not seg.shared:
            comp = (last, _chain(index, seg.pattern, before))
        elif pos == len(segments) - 1:
            # Only the totals survive: the shared per-START counts n_p
            # times the prefix snapshot (linear) — Example 3's product.
            return index.totals(first, before * cache.get_reverse(seg.pattern))
        else:
            # Mid-query sharing needs per-END completions: the C-matrix
            # combination (the paper's three-factor Comb cost).
            comp = (last, cache.get(seg.pattern).combine(before))
    assert comp is not None, "query with no segments"
    return index.totals(*comp)


def count_queries(
    cache: SharedCache, queries: Sequence[list[Segment]]
) -> tuple[np.ndarray, np.ndarray]:
    """Exact COUNT(*) of every query in every partition of the cache.

    Returns ``(counts, exact_parts)``: ``counts[i, p]`` (int64) is query
    i's count in partition p, and ``exact_parts`` lists the partitions
    re-run in Python ints because some query's size bound reached 2^63.
    Raises OverflowError when such a count is 2^63 or more."""
    index = cache.index
    counts = np.zeros((len(queries), index.n_parts), dtype=np.int64)
    bound = np.zeros(index.n_parts)
    patterns = [[t for seg in segments for t in seg.pattern] for segments in queries]
    # No count can reach 2^63 when the largest partition's size to the
    # longest pattern's length stays below it.
    longest = max(map(len, patterns), default=0)
    if float(index.n_rows_max) ** longest >= _INT64_SAFE:
        for pattern in patterns:
            bound = np.maximum(bound, index.size_bound(pattern))
    exact_parts = np.flatnonzero(bound >= _INT64_SAFE)
    for i, segments in enumerate(queries):
        counts[i] = _query_totals(cache, segments)
    if len(exact_parts):
        exact = cache.exact(exact_parts)
        for i, segments in enumerate(queries):
            big = _query_totals(exact, segments)
            if any(c >= 2**63 for c in big):
                raise OverflowError(
                    f"a sequence count reaches {max(big)} >= 2^63 "
                    "(beyond the int64 count column)"
                )
            counts[i, exact_parts] = big.astype(np.int64)
    return counts, exact_parts


def evaluate_partitions(
    times: np.ndarray,
    codes: np.ndarray,
    names: Sequence[str],
    pids: np.ndarray | None,
    n_parts: int,
    queries: Sequence[list[Segment]],
) -> tuple[np.ndarray, dict]:
    """Evaluate every query over every ``(window, key)`` partition in one
    pass: each chain level of each query runs once over all partitions,
    and each shared aggregate is built once for all of them.

    Rows of a partition must be in ascending time order; ``codes``
    index ``names`` and ``pids`` give each row's partition (None: one
    partition). Returns ``(counts, stats)`` with ``counts[i, p]`` the
    exact int64 COUNT(*) of ``queries[i]`` in partition p, and the
    pass's kernel figures: shared builds in total (``c_builds``, per
    pass) and by kind, their bytes, segments evaluated, the largest
    partition and the partitions re-run in Python ints."""
    cache = SharedCache(times, codes, names, pids=pids, n_parts=n_parts)
    counts, exact_parts = count_queries(cache, queries)
    sizes = np.bincount(cache.index.pids, minlength=n_parts)
    stats = {
        "c_builds": cache.builds,
        "c_bytes": cache.state_bytes,
        **{
            f"builds_{kind}": cache.builds_by_kind[kind]
            for kind in ("forward", "reverse", "cmatrix")
        },
        "segments": sum(len(segments) for segments in queries),
        "max_partition_rows": int(sizes.max()) if len(sizes) else 0,
        "exact_fallback_partitions": len(exact_parts),
    }
    return counts, stats


def eval_query(
    times: np.ndarray,
    types: np.ndarray,
    segments: list[Segment],
    cache: SharedCache | None = None,
) -> int:
    """COUNT(*) for one query over one partition (``times`` ascending):
    the one-partition case of :func:`count_queries`."""
    if cache is None:
        cache = SharedCache(times, types)
    return int(count_queries(cache, [segments])[0][0, 0])


def brute_force_count(
    times: np.ndarray,
    types: np.ndarray,
    pattern: tuple[str, ...],
    exact: bool = False,
) -> float | int:
    """Reference oracle: O(l n^2) dynamic program over raw events, written
    independently of the chain trick (used only in tests on small data).
    Counts in Python ints; ``exact`` returns the int, else a float.
    """
    n = len(times)
    # dp[i]: sequences of pattern[:j+1] ending exactly at event i.
    dp = [1 if types[i] == pattern[0] else 0 for i in range(n)]
    for j in range(1, len(pattern)):
        nxt = [0] * n
        for i in range(n):
            if types[i] != pattern[j]:
                continue
            nxt[i] = sum(dp[k] for k in range(n) if times[k] < times[i])
        dp = nxt
    return sum(dp) if exact else float(sum(dp))
