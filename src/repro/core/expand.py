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


def expand_candidate(
    graph: SharonGraph,
    v: SharingCandidate,
    max_options: int = 128,
    causes: list[frozenset[int]] | None = None,
) -> list[SharingCandidate]:
    """Algorithm 5: BFS over query-subset options of v.

    For each conflict (v, u) and each non-empty combination C of its
    causing queries (Def 16: the complement is dropped from u's side by
    u's own options), the option (p, Q_p \\ C) is generated if it still
    has > 1 query and is new.

    ``causes`` holds C(v, u) for each u in ``graph.neighbors(v)`` order
    and is computed when not given. An option keeps v's pattern and a
    subset of v's queries, so its causing queries against u are just
    ``option.qids & C(v, u)``.

    ``max_options`` bounds the option set: Eq 14 makes the worst case
    exponential in the number of conflict-causing queries (the paper
    notes this), so generation stops once the bound is hit. Options are
    extra sharing *opportunities* — truncating them can only lower the
    achievable score, never produce an invalid plan — and BFS order
    keeps the largest query sets (highest-benefit options) first.
    """
    if causes is None:
        causes = [
            conflict_causing_queries(graph.workload, v, u)
            for u in graph.neighbors(v)
        ]
    options: dict[frozenset[int], SharingCandidate] = {v.qids: v}
    current = [v]
    while current and len(options) < max_options:
        nxt: list[SharingCandidate] = []
        for cand in current:
            # Dropping more than |Q| - 2 queries leaves no valid option.
            max_drop = len(cand.qids) - 2
            for cause in causes:
                qc = sorted(cand.qids & cause)
                for r in range(1, min(len(qc), max_drop) + 1):
                    for combo in combinations(qc, r):
                        qp = cand.qids.difference(combo)
                        if qp not in options:
                            child = SharingCandidate(v.p, qp)
                            options[qp] = child
                            nxt.append(child)
                            if len(options) >= max_options:
                                return list(options.values())
        current = nxt
    return list(options.values())


def _mask(qids: frozenset[int]) -> int:
    """Query set as a bitmask: bit q is set for q in ``qids``."""
    m = 0
    for q in qids:
        m |= 1 << q
    return m


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
    a ∩ b is non-empty when v = u, and never otherwise. Each adjacency
    set receives its members in vertex order, exactly as pairwise
    ``add_vertex`` insertion would. Alg 5 walks each candidate's
    neighbours in vertex order, so the options ``max_options`` keeps do
    not depend on the order of a set of strings.
    """
    base = graph.vertices
    pos = {v.key(): i for i, v in enumerate(base)}
    # Neighbour positions in vertex order, as ``graph.neighbors`` lists them.
    nbrs = [sorted(pos[uk] for uk in graph.adj[v.key()]) for v in base]
    # C(v, u) once per base edge; it is symmetric in v and u.
    cause: dict[tuple[int, int], frozenset[int]] = {}
    for i, v in enumerate(base):
        for j in nbrs[i]:
            if (i, j) not in cause:
                cause[i, j] = cause[j, i] = conflict_causing_queries(
                    graph.workload, v, base[j]
                )

    # Options of distinct base candidates differ: they keep their base's
    # pattern, and ``build_graph`` makes one candidate per pattern.
    opts: list[SharingCandidate] = []
    weights: list[float] = []
    groups: dict[int, list[int]] = {}  # base index -> its options' indices
    for i, v in enumerate(base):
        causes = [cause[i, j] for j in nbrs[i]]
        for opt in expand_candidate(graph, v, max_options, causes):
            w = graph.weight(v) if opt.key() == v.key() else cost.bvalue(opt)
            if w > 0:
                groups.setdefault(i, []).append(len(opts))
                opts.append(opt)
                weights.append(w)

    masks = [_mask(o.qids) for o in opts]
    cause_mask = {e: _mask(qs) for e, qs in cause.items()}
    earlier: list[list[int]] = []  # per option: adjacent earlier options
    for i, group in groups.items():
        lower = [j for j in nbrs[i] if j < i and j in groups]
        for n, a in enumerate(group):
            # Groups follow base order, so a runs through 0, 1, ... and
            # the options of lower base neighbours, then this group's,
            # list earlier vertices in order.
            adjacent: list[int] = []
            for j in lower:
                shared = masks[a] & cause_mask[i, j]
                if shared:
                    adjacent += [b for b in groups[j] if masks[b] & shared]
            adjacent += [b for b in group[:n] if masks[b] & masks[a]]
            earlier.append(adjacent)
    return SharonGraph.from_edges(graph.workload, opts, weights, earlier)
