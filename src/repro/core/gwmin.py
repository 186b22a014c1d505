"""GWMIN greedy MWIS algorithm (paper Appendix B, Alg 8) and its
guaranteed weight bound (Eq 10), used both as the Greedy Optimizer's
plan finder and as the pruning bound for conflict-ridden candidates.
"""
from __future__ import annotations

from typing import Iterable

from .graph import SharonGraph


def component_bound(graph: SharonGraph, vertices: Iterable[int]) -> float:
    """Eq 10 summed over ``vertices``, in their order: GWMIN's output on
    the subgraph they span weighs at least this much when no edge leaves
    them (a connected component, or the whole graph)."""
    w, adj = graph.weights, graph.adj
    return sum(w[v] / (len(adj[v]) + 1) for v in vertices)


def guaranteed_weight(graph: SharonGraph) -> float:
    """Eq 10: GWMIN's output weight is >= sum of w(u) / (degree(u) + 1)."""
    return component_bound(graph, graph.adj)


def gwmin(graph: SharonGraph) -> list[int]:
    """Algorithm 8: repeatedly take the vertex maximizing w/(deg+1) and
    drop its closed neighborhood. Returns the independent set (a valid
    sharing plan) as vertex numbers. Ties break on the
    earliest-constructed vertex, which keeps runs deterministic."""
    g = graph.copy()
    w, adj = g.weights, g.adj
    independent: list[int] = []
    while adj:
        best = max(adj, key=lambda v: w[v] / (len(adj[v]) + 1))
        independent.append(best)
        for v in [best, *adj[best]]:
            g.remove_vertex(v)
    return independent
