"""Sharing plan finder (paper Section 6, Algs 3-4) plus the exhaustive
baseline used by the Exhaustive Optimizer in Section 8.3.

Plans are tuples of vertex keys sorted lexicographically (the paper sorts
candidates "alphabetically by their patterns within a plan"), so the
Apriori-style join of Algorithm 3 — two parents agreeing on the first
s-1 candidates whose last candidates are non-adjacent — generates each
child exactly once. ``PlanSearchStats`` records the per-level plan counts
that back the optimizer latency/memory experiment (Fig 15) and the
search-space percentages of Examples 9-10.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Iterable, Iterator

from .graph import SharonGraph
from .model import SharingCandidate

PlanKey = tuple  # sorted tuple of vertex keys


@dataclass
class PlanSearchStats:
    """Instrumentation: number of plans generated per level and the peak
    number of plans held at once (the finder's memory driver)."""

    plans_per_level: list[int] = field(default_factory=list)
    peak_level_plans: int = 0

    @property
    def total_plans(self) -> int:
        return sum(self.plans_per_level)


def _score(graph: SharonGraph, plan: PlanKey) -> float:
    return sum(graph.weights[k] for k in plan)


def get_next_level(
    graph: SharonGraph, parents: list[PlanKey]
) -> list[PlanKey]:
    """Algorithm 3: level s -> level s+1, constructing only valid plans.

    Base case (s=1): all non-adjacent vertex pairs. Inductive case: join
    parents sharing the first s-1 candidates; the child is valid iff the
    two differing last candidates are non-adjacent (Lemma 6).
    """
    children: list[PlanKey] = []
    s = len(parents[0]) if parents else 0
    for i in range(len(parents)):
        pi = parents[i]
        for j in range(i + 1, len(parents)):
            pj = parents[j]
            if pi[: s - 1] != pj[: s - 1]:
                # Parents are sorted; once prefixes diverge no later j matches.
                break
            a, b = pi[s - 1], pj[s - 1]
            if b not in graph.adj[a]:
                children.append(pi + (b,))
    return children


def _levels(graph: SharonGraph, keys: Iterable[tuple]) -> Iterator[list[PlanKey]]:
    """The valid plans over vertices ``keys``, level by level: single
    candidates first, then each level from the last by Algorithm 3,
    until one is empty."""
    level: list[PlanKey] = sorted((k,) for k in keys)
    while level:
        yield level
        level = sorted(get_next_level(graph, level))


def _search(
    graph: SharonGraph, keys: Iterable[tuple], stats: PlanSearchStats | None
) -> tuple[PlanKey, float]:
    """Algorithm 4 over vertices ``keys``: BFS over their valid plans,
    pruning invalid branches at their roots; returns the best plan and
    its score."""
    opt: PlanKey = ()
    best = 0.0
    for level in _levels(graph, keys):
        if stats is not None:
            stats.plans_per_level.append(len(level))
            stats.peak_level_plans = max(stats.peak_level_plans, len(level))
        for plan in level:
            sc = _score(graph, plan)
            if sc > best:
                opt, best = plan, sc
    return opt, best


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Algorithm 4 over the whole graph. Returns (optimal plan with the
    conflict-free candidates F appended, best score over the *reduced*
    space — callers holding the original graph add F's weights to get
    the full score)."""
    opt, best = _search(graph, graph.index, stats)
    return [graph.index[k] for k in opt] + list(conflict_free or []), best


def _components(graph: SharonGraph) -> list[list[tuple]]:
    """Vertex keys of each connected component (by conflict edges)."""
    seen: set[tuple] = set()
    comps: list[list[tuple]] = []
    for root in graph.index:
        if root in seen:
            continue
        seen.add(root)
        comp = [root]
        for k in comp:  # grows while it is walked: a breadth-first search
            for u in graph.adj[k]:
                if u not in seen:
                    seen.add(u)
                    comp.append(u)
        comps.append(comp)
    return comps


def find_optimal_plan_decomposed(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Optimality-preserving engineering extension of Algorithm 4: run
    the search per connected component and union the results. Candidates
    in different components never conflict, so the union of per-component
    optima is the global optimum while the traversed space shrinks from
    the *product* of component valid-space sizes to their *sum*. The
    paper's finder (no decomposition) is :func:`find_optimal_plan`; the
    large plan-quality sweeps (Fig 16) use this variant."""
    plan: list[SharingCandidate] = list(conflict_free or [])
    score = 0.0
    for keys in _components(graph):
        opt, best = _search(graph, keys, stats)
        plan += [graph.index[k] for k in opt]
        score += best
    return plan, score


def all_valid_plans(graph: SharonGraph) -> list[PlanKey]:
    """Every non-empty valid plan, via the level-wise generator. Used by
    tests to pin Example 10's valid-space size (10 plans)."""
    return [plan for level in _levels(graph, graph.index) for plan in level]


def exhaustive_optimal_plan(
    graph: SharonGraph, stats: PlanSearchStats | None = None
) -> tuple[list[SharingCandidate], float]:
    """The naive finder: enumerate all 2^|V| candidate subsets, keep the
    best valid one. Exponential with no pruning — the Exhaustive
    Optimizer baseline of Section 8.3."""
    keys = sorted(graph.index)
    opt: tuple = ()
    best = 0.0
    for s in range(1, len(keys) + 1):
        for combo in combinations(keys, s):
            if any(b in graph.adj[a] for a, b in combinations(combo, 2)):
                continue
            sc = _score(graph, combo)
            if sc > best:
                opt, best = combo, sc
        if stats is not None:
            n_subsets = comb(len(keys), s)
            stats.plans_per_level.append(n_subsets)
            stats.peak_level_plans = max(stats.peak_level_plans, n_subsets)
    return [graph.index[k] for k in opt], best
