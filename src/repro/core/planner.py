"""Sharing plan finder (paper Section 6, Algs 3-4) plus the exhaustive
baseline used by the Exhaustive Optimizer in Section 8.3.

The paper sorts candidates "alphabetically by their patterns within a
plan". The finder ranks the vertices by their candidates' keys once per
call, and a plan is a tuple of vertex numbers in rank order; so the
Apriori-style join of Algorithm 3 — two parents agreeing on the first
s-1 candidates whose last candidates are non-adjacent — generates each
child exactly once, and each level comes out in lexicographic rank
order. ``PlanSearchStats`` records the per-level plan counts that back
the optimizer latency/memory experiment (Fig 15) and the search-space
percentages of Examples 9-10.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, groupby
from math import comb
from operator import itemgetter
from typing import Iterator

from .graph import SharonGraph
from .model import SharingCandidate

PlanKey = tuple  # vertex numbers in rank order


@dataclass
class PlanSearchStats:
    """Instrumentation: number of plans generated per level and the peak
    number of plans held at once (the finder's memory driver)."""

    plans_per_level: list[int] = field(default_factory=list)
    peak_level_plans: int = 0

    @property
    def total_plans(self) -> int:
        return sum(self.plans_per_level)


def ranked(graph: SharonGraph) -> list[int]:
    """The graph's vertices sorted by their candidates' keys."""
    cands = graph.cands
    return sorted(graph.adj, key=lambda v: cands[v].key())


def get_next_level(
    graph: SharonGraph, parents: list[PlanKey]
) -> list[PlanKey]:
    """Algorithm 3: level s -> level s+1, constructing only valid plans.

    Base case (s=1): all non-adjacent vertex pairs. Inductive case: join
    parents sharing the first s-1 candidates; the child is valid iff the
    two differing last candidates are non-adjacent (Lemma 6). Parents in
    rank order give children in rank order.
    """
    adj = graph.adj
    children: list[PlanKey] = []
    s = len(parents[0]) if parents else 0
    # Parents are sorted: those sharing a prefix form one run.
    for _, run in groupby(parents, itemgetter(slice(0, s - 1))):
        run = list(run)
        lasts = [p[-1] for p in run]
        for k, pa in enumerate(run, 1):
            nbrs = adj[pa[-1]]
            children += [pa + (b,) for b in lasts[k:] if b not in nbrs]
    return children


def _levels(graph: SharonGraph, order: list[int]) -> Iterator[list[PlanKey]]:
    """The valid plans over vertices ``order`` (in rank order), level by
    level: single candidates first, then each level from the last by
    Algorithm 3, until one is empty."""
    level: list[PlanKey] = [(v,) for v in order]
    while level:
        yield level
        level = get_next_level(graph, level)


def _search(
    graph: SharonGraph, order: list[int], stats: PlanSearchStats | None
) -> tuple[PlanKey, float]:
    """Algorithm 4 over vertices ``order`` (in rank order): BFS over
    their valid plans, pruning invalid branches at their roots; returns
    the first best plan and its score."""
    w = graph.weights.__getitem__
    opt: PlanKey = ()
    best = 0.0
    for level in _levels(graph, order):
        if stats is not None:
            stats.plans_per_level.append(len(level))
            stats.peak_level_plans = max(stats.peak_level_plans, len(level))
        for plan in level:
            sc = sum(map(w, plan))
            if sc > best:
                opt, best = plan, sc
    return opt, best


def _candidates(graph: SharonGraph, vertices) -> list[SharingCandidate]:
    return [graph.cands[v] for v in vertices]


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: list[int] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Algorithm 4 over the whole graph. Returns (optimal plan with the
    conflict-free vertices F appended, best score over the *reduced*
    space — callers holding the original graph add F's weights to get
    the full score)."""
    opt, best = _search(graph, ranked(graph), stats)
    return _candidates(graph, [*opt, *(conflict_free or [])]), best


def find_optimal_plan_decomposed(
    graph: SharonGraph,
    conflict_free: list[int] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Optimality-preserving engineering extension of Algorithm 4: run
    the search per connected component and union the results. Candidates
    in different components never conflict, so the union of per-component
    optima is the global optimum while the traversed space shrinks from
    the *product* of component valid-space sizes to their *sum*. The
    paper's finder (no decomposition) is :func:`find_optimal_plan`; the
    large plan-quality sweeps (Fig 16) use this variant."""
    rank = {v: r for r, v in enumerate(ranked(graph))}
    plan: list[int] = []
    score = 0.0
    for comp in graph.components():
        opt, best = _search(graph, sorted(comp, key=rank.__getitem__), stats)
        plan += opt
        score += best
    return _candidates(graph, [*(conflict_free or []), *plan]), score


def all_valid_plans(graph: SharonGraph) -> list[PlanKey]:
    """Every non-empty valid plan, via the level-wise generator. Used by
    tests to pin Example 10's valid-space size (10 plans)."""
    return [plan for level in _levels(graph, ranked(graph)) for plan in level]


def exhaustive_optimal_plan(
    graph: SharonGraph, stats: PlanSearchStats | None = None
) -> tuple[list[SharingCandidate], float]:
    """The naive finder: enumerate all 2^|V| candidate subsets, keep the
    best valid one. Exponential with no pruning — the Exhaustive
    Optimizer baseline of Section 8.3."""
    order = ranked(graph)
    adj, w = graph.adj, graph.weights.__getitem__
    opt: tuple = ()
    best = 0.0
    for s in range(1, len(order) + 1):
        for combo in combinations(order, s):
            if any(b in adj[a] for a, b in combinations(combo, 2)):
                continue
            sc = sum(map(w, combo))
            if sc > best:
                opt, best = combo, sc
        if stats is not None:
            n_subsets = comb(len(order), s)
            stats.plans_per_level.append(n_subsets)
            stats.peak_level_plans = max(stats.peak_level_plans, n_subsets)
    return _candidates(graph, opt), best
