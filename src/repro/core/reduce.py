"""Sharon graph reduction (paper Section 5, Alg 2).

Prunes *conflict-ridden* candidates — whose best achievable plan score is
below GWMIN's guaranteed weight (Def 13) — and extracts *conflict-free*
candidates (Def 14) straight into the plan. DESIGN.md Section 6 explains
one correction to the printed algorithm: ``Score_max`` must count the
weight of already-extracted conflict-free candidates, otherwise the
fixed GWMIN bound (computed on the full graph, conflict-free vertices
included) would wrongly prune the whole remainder. With that reading the
paper's Examples 7 and 9 are reproduced exactly.

:func:`reduce_graph` is the printed algorithm, one bound for the whole
graph; :func:`reduce_components` bounds each connected component by its
own Eq 10 sum (DESIGN.md Section 6).
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .graph import SharonGraph
from .gwmin import component_bound


def neighbour_weights(graph: SharonGraph) -> list[float]:
    """Each vertex's sum of its neighbours' weights, by vertex number
    (0.0 for a removed vertex), correctly rounded (``math.fsum``) so it
    does not depend on the order the adjacency set iterates in."""
    w = graph.weights
    out = [0.0] * len(w)
    for v, nbrs in graph.adj.items():
        out[v] = math.fsum(map(w.__getitem__, nbrs))
    return out


def score_max(
    graph: SharonGraph,
    v: int,
    extra: float = 0.0,
    total: float | None = None,
    neighbours: list[float] | None = None,
) -> float:
    """Def 12: best score of a plan containing v = weights of all
    candidates not in conflict with v (v itself included) + ``extra``
    for candidates already guaranteed in the plan. ``total`` is the
    summed weight of the graph's vertices and ``neighbours`` is
    :func:`neighbour_weights` when the caller keeps them."""
    if total is None:
        total = sum(map(graph.weights.__getitem__, graph.adj))
    if neighbours is None:
        neighbours = neighbour_weights(graph)
    return extra + total - neighbours[v]


@dataclass
class ReductionResult:
    """The reduced graph, and the numbers of the vertices Alg 2 took out:
    conflict-free ones (in every optimal plan) and pruned ones (in none)."""

    graph: SharonGraph
    conflict_free: list[int] = field(default_factory=list)
    pruned: list[int] = field(default_factory=list)


def _reduce(
    res: ReductionResult,
    vertices: list[int],
    min_weight: float,
    neighbours: list[float],
) -> None:
    """Algorithm 2 over ``vertices`` of ``res.graph``, which no edge
    leaves, against the bound ``min_weight``. Removes vertices from the
    graph and records them in ``res``; keeps ``neighbours`` current."""
    adj, w = res.graph.adj, res.graph.weights
    free_weight = 0.0
    # Their total weight changes only when a vertex goes; it is re-summed
    # then (in vertex order, so the same float as a fresh sum). A removed
    # vertex's weight leaves its neighbours' sums.
    total = sum(map(w.__getitem__, vertices))
    changed = True
    while changed:
        changed = False
        vertices = [v for v in vertices if v in adj]
        for v in vertices:
            if not adj[v]:
                res.conflict_free.append(v)
                free_weight += w[v]
            elif score_max(res.graph, v, free_weight, total, neighbours) < min_weight:
                res.pruned.append(v)
            else:
                continue
            for u in adj.pop(v):  # remove v
                adj[u].discard(v)
                neighbours[u] -= w[v]
            total = sum(map(w.__getitem__, filter(adj.__contains__, vertices)))
            changed = True


def reduce_graph(graph: SharonGraph, min_weight: float) -> ReductionResult:
    """Algorithm 2 as printed. ``min_weight`` is GWMIN's guaranteed
    weight (Eq 10) on the input graph. Mutates a copy; returns (reduced
    graph, F, pruned)."""
    res = ReductionResult(graph.copy())
    _reduce(res, list(graph.adj), min_weight, neighbour_weights(graph))
    return res


def reduce_components(graph: SharonGraph) -> ReductionResult:
    """Algorithm 2 run on each connected component C of ``graph`` in
    turn, C's bound being Eq 10 summed over C, and Score_max counting C's
    remaining vertices and the conflict-free weight taken out of C.

    Sound because bound_C <= GWMIN(C) <= OPT(C): a vertex whose best plan
    within C scores below bound_C is in no optimal plan of C, and an
    optimal plan of the graph is a union of optimal plans of its
    components. Mutates a copy; returns (reduced graph, F, pruned)."""
    res = ReductionResult(graph.copy())
    neighbours = neighbour_weights(graph)
    for comp in graph.components():
        comp.sort()
        _reduce(res, comp, component_bound(graph, comp), neighbours)
    return res
