"""Sharon graph reduction (paper Section 5, Alg 2).

Prunes *conflict-ridden* candidates — whose best achievable plan score is
below GWMIN's guaranteed weight (Def 13) — and extracts *conflict-free*
candidates (Def 14) straight into the plan. DESIGN.md Section 6 explains
one correction to the printed algorithm: ``Score_max`` must count the
weight of already-extracted conflict-free candidates, otherwise the
fixed GWMIN bound (computed on the full graph, conflict-free vertices
included) would wrongly prune the whole remainder. With that reading the
paper's Examples 7 and 9 are reproduced exactly.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import SharonGraph
from .model import SharingCandidate


def neighbour_weights(graph: SharonGraph) -> dict[tuple, float]:
    """Each vertex's sum of its neighbours' weights, correctly rounded
    (``math.fsum``), so it is the same float whatever order the adjacency
    set iterates in (for string tuples, an order that follows the
    process's hash seed)."""
    w = graph.weights.__getitem__
    return {k: math.fsum(map(w, graph.adj[k])) for k in graph.index}


def score_max(
    graph: SharonGraph,
    v: SharingCandidate,
    extra: float = 0.0,
    total: float | None = None,
    neighbours: dict[tuple, float] | None = None,
) -> float:
    """Def 12: best score of a plan containing v = weights of all
    candidates not in conflict with v (v itself included) + ``extra``
    for candidates already guaranteed in the plan. ``total`` is
    ``sum(graph.weights.values())`` and ``neighbours`` is
    :func:`neighbour_weights` when the caller keeps them."""
    if total is None:
        total = sum(graph.weights.values())
    if neighbours is None:
        neighbours = neighbour_weights(graph)
    return extra + total - neighbours[v.key()]


@dataclass
class ReductionResult:
    graph: SharonGraph
    conflict_free: list[SharingCandidate] = field(default_factory=list)
    pruned: list[SharingCandidate] = field(default_factory=list)


def reduce_graph(graph: SharonGraph, min_weight: float) -> ReductionResult:
    """Algorithm 2. ``min_weight`` is GWMIN's guaranteed weight (Eq 10)
    on the input graph. Mutates a copy; returns (reduced graph, F, pruned)."""
    g = graph.copy()
    free: list[SharingCandidate] = []
    pruned: list[SharingCandidate] = []
    free_weight = 0.0
    # The graph's total weight changes only when a vertex goes; it is
    # re-summed then (same order, so the same float as a fresh sum). A
    # removed vertex's weight leaves its neighbours' sums.
    total = sum(g.weights.values())
    neighbours = neighbour_weights(g)
    changed = True
    while changed:
        changed = False
        for v in list(g.vertices):
            if g.degree(v) == 0:
                free.append(v)
                free_weight += g.weight(v)
            elif score_max(g, v, free_weight, total, neighbours) < min_weight:
                pruned.append(v)
            else:
                continue
            k, w = v.key(), g.weight(v)
            for u in g.adj[k]:
                neighbours[u] -= w
            del neighbours[k]
            g.remove_vertex(v)
            total = sum(g.weights.values())
            changed = True
    return ReductionResult(graph=g, conflict_free=free, pruned=pruned)
