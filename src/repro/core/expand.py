"""Sharing conflict resolution (paper Section 7.1, Algs 5-6).

A candidate ``(p, Q_p)`` with conflicts is expanded into *options*
``(p, Q_p')`` with ``Q_p' ⊂ Q_p, |Q_p'| > 1``: dropping the queries that
cause a conflict frees the remaining queries to share p alongside the
conflicting candidate. The expanded graph (options as vertices, conflicts
recomputed, weights re-estimated on the smaller query sets) feeds the
reducer and plan finder; the Exhaustive and Sharon optimizers of
Section 8.3 both run on it.
"""
from __future__ import annotations

from itertools import combinations

from .cost import CostModel
from .graph import SharonGraph, conflict_causing_queries
from .model import SharingCandidate


def _mask(qids) -> int:
    """Query set as a bitmask: bit q is set for q in ``qids``."""
    m = 0
    for q in qids:
        m |= 1 << q
    return m


def _bits(m: int) -> list[int]:
    """The set bits of ``m`` as powers of two, lowest first."""
    out = []
    while m:
        low = m & -m
        out.append(low)
        m ^= low
    return out


def _causes(graph: SharonGraph, v: int, u: int) -> int:
    """C(v, u) as a query bitmask."""
    return _mask(
        conflict_causing_queries(graph.cands[v], graph.occ[v], graph.cands[u], graph.occ[u])
    )


def expand_candidate(
    graph: SharonGraph,
    v: int,
    max_options: int = 128,
    causes: list[int] | None = None,
) -> list[SharingCandidate]:
    """Algorithm 5: BFS over query-subset options of vertex v.

    For each conflict (v, u) and each non-empty combination C of its
    causing queries (Def 16: the complement is dropped from u's side by
    u's own options), the option (p, Q_p \\ C) is generated if it still
    has > 1 query and is new. v's own candidate comes first.

    ``causes`` holds C(v, u) as a query bitmask for each neighbour u in
    vertex order, and is computed when not given. An option keeps v's
    pattern and a subset of v's queries, so its causing queries against
    u are just ``option & C(v, u)``; the BFS runs on query bitmasks.

    ``max_options`` bounds the option set: Eq 14 makes the worst case
    exponential in the number of conflict-causing queries (the paper
    notes this), so generation stops once the bound is hit. Options are
    extra sharing *opportunities* — truncating them can only lower the
    achievable score, never produce an invalid plan — and BFS order
    keeps the largest query sets (highest-benefit options) first.
    """
    cand = graph.cands[v]
    if causes is None:
        causes = [_causes(graph, v, u) for u in sorted(graph.adj[v])]
    root = _mask(cand.qids)
    found = [root]
    seen = {root}
    # (queries, max_drop) -> every combination of up to max_drop of those
    # queries, as a bitmask, in ``combinations`` order.
    drops: dict[tuple[int, int], list[int]] = {}
    current = found
    while current and len(found) < max_options:
        nxt: list[int] = []
        for m in current:
            # Dropping more than |Q| - 2 queries leaves no valid option.
            max_drop = m.bit_count() - 2
            if max_drop < 1:
                continue
            for cause in causes:
                qc = m & cause
                if not qc:
                    continue
                subsets = drops.get((qc, max_drop))
                if subsets is None:
                    bits = _bits(qc)
                    subsets = drops[qc, max_drop] = [
                        sum(combo)
                        for r in range(1, min(len(bits), max_drop) + 1)
                        for combo in combinations(bits, r)
                    ]
                for drop in subsets:
                    child = m - drop
                    if child not in seen:
                        seen.add(child)
                        found.append(child)
                        nxt.append(child)
                        if len(found) >= max_options:
                            return _options(cand, found)
        current = nxt
    return _options(cand, found)


def _options(cand: SharingCandidate, masks: list[int]) -> list[SharingCandidate]:
    """``cand`` itself, then its options on the query sets ``masks[1:]``."""
    return [cand] + [
        SharingCandidate(cand.p, frozenset(q for q in cand.qids if m >> q & 1))
        for m in masks[1:]
    ]


def expand_graph(
    graph: SharonGraph, cost: CostModel, max_options: int = 128
) -> SharonGraph:
    """Algorithm 6: expand every candidate, rebuild vertices and edges.

    Option weights are their own BValues under ``cost``; options that are
    not beneficial are dropped (Alg 1's Line 3 applies to the expanded
    graph too). The original candidates keep their recorded weights so an
    injected-weight graph (tests) stays consistent.

    Option edges are derived from the base edges, which must be the Def 6
    conflicts of ``graph``'s vertices (as ``build_graph`` makes them).
    Options a, b of base candidates v, u have a ⊆ Q_v, b ⊆ Q_u, so they
    conflict iff a ∩ b meets C(v, u) when (v, u) is a base edge, iff
    a ∩ b is non-empty when v = u, and never otherwise. C(v, u) comes
    from the occurrences ``graph`` holds, once per base edge; an option
    shares its base's occurrences. Options are numbered base by base.
    """
    base = list(graph.adj)
    nbrs = {v: sorted(graph.adj[v]) for v in base}
    # C(v, u) once per base edge; it is symmetric in v and u.
    cause: dict[tuple[int, int], int] = {}
    for v in base:
        for u in nbrs[v]:
            if (v, u) not in cause:
                cause[v, u] = cause[u, v] = _causes(graph, v, u)

    # Options of distinct base candidates differ: they keep their base's
    # pattern, and ``build_graph`` makes one candidate per pattern.
    gx = SharonGraph(graph.workload)
    groups: dict[int, list[int]] = {}  # base vertex -> its options
    for v in base:
        cand = graph.cands[v]
        for opt in expand_candidate(graph, v, max_options, [cause[v, u] for u in nbrs[v]]):
            w = graph.weights[v] if opt is cand else cost.bvalue(opt)
            if w > 0:
                groups.setdefault(v, []).append(len(gx.cands))
                gx.cands.append(opt)
                gx.weights.append(w)
                gx.occ.append(graph.occ[v])

    # holders[v][q]: the options of v that hold query q.
    holders: dict[int, dict[int, set[int]]] = {}
    for v, group in groups.items():
        by_query = holders[v] = {q: set() for q in graph.cands[v].qids}
        for a in group:
            for q in gx.cands[a].qids:
                by_query[q].add(a)
    for v, group in groups.items():
        # near[q]: the options that conflict with any option of v holding
        # q — v's own, and u's for each base edge (v, u) with q in C(v, u).
        near = {q: set(s) for q, s in holders[v].items()}
        for u in nbrs[v]:
            if u in holders:
                c = cause[v, u]
                for q, s in holders[u].items():
                    if c >> q & 1:
                        near[q] |= s
        for a in group:
            adj = set().union(*[near[q] for q in gx.cands[a].qids])
            adj.discard(a)
            gx.adj[a] = adj
    return gx
