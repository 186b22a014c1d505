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
from typing import Iterator

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


def _levels(graph: SharonGraph) -> Iterator[list[PlanKey]]:
    """The valid search space level by level: single candidates first,
    then each level from the last by Algorithm 3, until one is empty."""
    level: list[PlanKey] = sorted((v.key(),) for v in graph.vertices)
    while level:
        yield level
        level = sorted(get_next_level(graph, level))


def find_optimal_plan(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Algorithm 4: BFS over the valid search space, pruning invalid
    branches at their roots. Returns (optimal plan with the conflict-free
    candidates F appended, best score over the *reduced* space — callers
    holding the original graph add F's weights to get the full score)."""
    conflict_free = conflict_free or []
    by_key = {v.key(): v for v in graph.vertices}
    opt: PlanKey = ()
    best = 0.0
    for level in _levels(graph):
        if stats is not None:
            stats.plans_per_level.append(len(level))
            stats.peak_level_plans = max(stats.peak_level_plans, len(level))
        for plan in level:
            sc = _score(graph, plan)
            if sc > best:
                opt, best = plan, sc
    plan = [by_key[k] for k in opt] + list(conflict_free)
    return plan, best


def _components(graph: SharonGraph) -> list[list]:
    """Connected components of the graph's vertices (by conflict edges)."""
    seen: set[tuple] = set()
    comps: list[list] = []
    by_key = {v.key(): v for v in graph.vertices}
    for v in graph.vertices:
        if v.key() in seen:
            continue
        stack, comp = [v.key()], []
        seen.add(v.key())
        while stack:
            k = stack.pop()
            comp.append(by_key[k])
            for u in graph.adj[k]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    return comps


def find_optimal_plan_decomposed(
    graph: SharonGraph,
    conflict_free: list[SharingCandidate] | None = None,
    stats: PlanSearchStats | None = None,
) -> tuple[list[SharingCandidate], float]:
    """Optimality-preserving engineering extension of Algorithm 4: run
    the finder per connected component and union the results. Candidates
    in different components never conflict, so the union of per-component
    optima is the global optimum while the traversed space shrinks from
    the *product* of component valid-space sizes to their *sum*. The
    paper's finder (no decomposition) is :func:`find_optimal_plan`; the
    large plan-quality sweeps (Fig 16) use this variant."""
    plan: list[SharingCandidate] = list(conflict_free or [])
    score = 0.0
    for comp in _components(graph):
        sub = SharonGraph(graph.workload)
        keys = {v.key() for v in comp}
        sub.vertices = list(comp)
        sub.weights = {k: graph.weights[k] for k in keys}
        sub.adj = {k: set(graph.adj[k]) & keys for k in keys}
        sub_plan, sub_score = find_optimal_plan(sub, stats=stats)
        plan.extend(sub_plan)
        score += sub_score
    return plan, score


def all_valid_plans(graph: SharonGraph) -> list[PlanKey]:
    """Every non-empty valid plan, via the level-wise generator. Used by
    tests to pin Example 10's valid-space size (10 plans)."""
    return [plan for level in _levels(graph) for plan in level]


def exhaustive_optimal_plan(
    graph: SharonGraph, stats: PlanSearchStats | None = None
) -> tuple[list[SharingCandidate], float]:
    """The naive finder: enumerate all 2^|V| candidate subsets, keep the
    best valid one. Exponential with no pruning — the Exhaustive
    Optimizer baseline of Section 8.3."""
    by_key = {v.key(): v for v in graph.vertices}
    keys = sorted(by_key)
    opt: tuple = ()
    best = 0.0
    n_seen = 0
    for s in range(1, len(keys) + 1):
        level_count = 0
        for combo in combinations(keys, s):
            n_seen += 1
            level_count += 1
            if any(
                b in graph.adj[a] for a, b in combinations(combo, 2)
            ):
                continue
            sc = _score(graph, combo)
            if sc > best:
                opt, best = combo, sc
        if stats is not None:
            stats.plans_per_level.append(level_count)
            stats.peak_level_plans = max(stats.peak_level_plans, level_count)
    return [by_key[k] for k in opt], best
