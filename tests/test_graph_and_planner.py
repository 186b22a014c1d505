"""Structural tests for conflict detection, graph construction, GWMIN,
reduction and the plan finder — including randomized graphs where the
pruned Algorithm-4 finder must match brute-force enumeration exactly
(the paper's optimality claim, Lemma 7)."""
import itertools
import random

import pytest

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import expand_graph
from repro.core.graph import (
    SharonGraph,
    build_graph,
    conflict_causing_queries,
    occurrences,
)
from repro.core.gwmin import guaranteed_weight, gwmin
from repro.core.model import SharingCandidate, Workload, occurrence_ranges
from repro.core.planner import (
    all_valid_plans,
    exhaustive_optimal_plan,
    find_optimal_plan,
    find_optimal_plan_decomposed,
    get_next_level,
    ranked,
)
from repro.core.reduce import reduce_components, reduce_graph
from repro.workloads import clustered_example_workload


def in_conflict(workload, a, b):
    """Definition 6 on two candidates, their occurrences computed here."""
    return bool(
        conflict_causing_queries(
            a, occurrences(workload, a), b, occurrences(workload, b)
        )
    )


def conflicts_in_query(query_pattern, pa, pb):
    """True if pa and pb overlap positionally in this query."""
    wl = Workload.from_patterns([query_pattern] * 2)
    return in_conflict(
        wl, SharingCandidate(pa, frozenset({0, 1})), SharingCandidate(pb, frozenset({0, 1}))
    )


class TestConflictDetection:
    def test_occurrence_ranges(self):
        assert occurrence_ranges(("A", "B", "A", "B"), ("A", "B")) == [(0, 2), (2, 4)]
        assert occurrence_ranges(("A", "B"), ("C",)) == []

    def test_occurrences_cover_positions(self):
        wl = Workload.from_patterns([("A", "B", "A", "B"), ("C", "A", "B")])
        cand = SharingCandidate(("A", "B"), frozenset({0, 1}))
        # Both occurrences in q0 cover positions 0-3; q1's covers 1-2.
        assert occurrences(wl, cand) == {0: 0b1111, 1: 0b110}

    def test_suffix_prefix_overlap(self):
        # (A,B) and (B,C) overlap at B in (A,B,C).
        assert conflicts_in_query(("A", "B", "C"), ("A", "B"), ("B", "C"))

    def test_containment_is_conflict(self):
        assert conflicts_in_query(("A", "B", "C"), ("A", "B", "C"), ("B", "C"))

    def test_disjoint_no_conflict(self):
        assert not conflicts_in_query(("A", "B", "C", "D"), ("A", "B"), ("C", "D"))

    def test_no_common_query_no_conflict(self):
        wl = Workload.from_patterns([("A", "B", "C"), ("A", "B", "C")])
        a = SharingCandidate(("A", "B"), frozenset({0, 1}))
        b = SharingCandidate(("B", "C"), frozenset({0, 1}))
        assert in_conflict(wl, a, b)
        wl2 = Workload.from_patterns(
            [("A", "B", "X"), ("A", "B", "Y"), ("Z", "B", "C"), ("W", "B", "C")]
        )
        a2 = SharingCandidate(("A", "B"), frozenset({0, 1}))
        b2 = SharingCandidate(("B", "C"), frozenset({2, 3}))
        assert not in_conflict(wl2, a2, b2)

    def test_same_pattern_options_conflict_iff_common_query(self):
        wl = Workload.from_patterns([("A", "B")] * 4)
        a = SharingCandidate(("A", "B"), frozenset({0, 1}))
        b = SharingCandidate(("A", "B"), frozenset({1, 2}))
        c = SharingCandidate(("A", "B"), frozenset({2, 3}))
        assert in_conflict(wl, a, b)
        assert not in_conflict(wl, a, c)


def random_graph(n, p_edge, seed):
    """A Sharon-graph shell with synthetic candidates and random edges;
    planner algorithms only read weights and adjacency."""
    rng = random.Random(seed)
    wl = Workload.from_patterns([("A", "B")] * 2)
    g = SharonGraph(wl)
    for i in range(n):
        cand = SharingCandidate((f"T{i:03d}", f"U{i:03d}"), frozenset({0, 1}))
        g.add_vertex(cand, rng.randint(1, 30))  # no Def 6 conflicts here
    for a, b in itertools.combinations(range(n), 2):
        if rng.random() < p_edge:
            g.adj[a].add(b)
            g.adj[b].add(a)
    return g


def brute_force_mwis(g):
    best, best_w = (), 0.0
    vertices = sorted(g.adj)
    for r in range(len(vertices) + 1):
        for combo in itertools.combinations(vertices, r):
            if any(b in g.adj[a] for a, b in itertools.combinations(combo, 2)):
                continue
            w = sum(g.weights[v] for v in combo)
            if w > best_w:
                best, best_w = combo, w
    return best, best_w


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("n,p_edge", [(6, 0.3), (8, 0.5), (10, 0.25)])
class TestRandomGraphOptimality:
    def test_finder_matches_brute_force(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        _, score = find_optimal_plan(g)
        _, bf_score = brute_force_mwis(g)
        assert score == bf_score

    def test_reduction_preserves_optimality(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        red = reduce_graph(g, guaranteed_weight(g))
        plan, score = find_optimal_plan(red.graph, red.conflict_free)
        score += sum(g.weights[v] for v in red.conflict_free)
        _, bf_score = brute_force_mwis(g)
        assert score == bf_score

    def test_decomposed_finder_matches(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        _, s1 = find_optimal_plan(g)
        _, s2 = find_optimal_plan_decomposed(g)
        assert s1 == s2

    def test_exhaustive_matches(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        _, s1 = exhaustive_optimal_plan(g)
        _, bf = brute_force_mwis(g)
        assert s1 == bf

    def test_gwmin_meets_guarantee(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        plan = gwmin(g)
        w = sum(g.weights[v] for v in plan)
        assert w >= guaranteed_weight(g) - 1e-9

    def test_gwmin_plan_is_independent_set(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        plan = gwmin(g)
        for a, b in itertools.combinations(plan, 2):
            assert b not in g.adj[a]

    def test_all_valid_plans_are_valid_and_complete(self, n, p_edge, seed):
        g = random_graph(n, p_edge, seed)
        plans = all_valid_plans(g)
        # Validity of each generated plan...
        for plan in plans:
            assert all(
                b not in g.adj[a] for a, b in itertools.combinations(plan, 2)
            )
        # ...and completeness vs brute-force enumeration (Lemma 7).
        vertices = sorted(g.adj)
        expected = sum(
            1
            for r in range(1, len(vertices) + 1)
            for combo in itertools.combinations(vertices, r)
            if not any(
                b in g.adj[a] for a, b in itertools.combinations(combo, 2)
            )
        )
        assert len(plans) == expected
        assert len(set(plans)) == len(plans)


def disjoint_union(*parts):
    """One graph holding ``parts`` side by side, numbered part by part."""
    g = SharonGraph(parts[0].workload)
    for k, part in enumerate(parts):
        first = len(g.cands)
        for v in part.adj:
            a, b = part.cands[v].p
            g.add_vertex(SharingCandidate((f"G{k}{a}", b), frozenset({0, 1})), part.weights[v])
        for v, nbrs in part.adj.items():
            g.adj[first + v] |= {first + u for u in nbrs}
    return g


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize(
    "sizes,p_edge", [((5, 5), 0.4), ((4, 5, 6), 0.5), ((6, 7), 0.3), ((3, 4, 6), 0.7)]
)
def test_component_reduction_matches_brute_force(sizes, p_edge, seed):
    g = disjoint_union(
        *(random_graph(n, p_edge, 10 * seed + k) for k, n in enumerate(sizes))
    )
    red = reduce_components(g)
    _, score = find_optimal_plan_decomposed(red.graph, red.conflict_free)
    score += sum(g.weights[v] for v in red.conflict_free)
    assert score == brute_force_mwis(g)[1]


@pytest.mark.parametrize("n_clusters", [5, 10])
def test_component_bound_prunes_fig15_clusters(n_clusters):
    # Independent copies of the running example (Fig 15's 35 and 70
    # queries): the global bound falls below every Score_max, each
    # component's own bound does not.
    wl = clustered_example_workload(n_clusters=n_clusters)
    cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
    gx = expand_graph(build_graph(wl, sharable_patterns(wl), cost=cost), cost)
    assert reduce_graph(gx, guaranteed_weight(gx)).pruned == []
    red = reduce_components(gx)
    assert len(red.pruned) > 0
    plan, score = find_optimal_plan_decomposed(red.graph, red.conflict_free)
    full_plan, full_score = find_optimal_plan_decomposed(gx)
    assert sorted(c.key() for c in plan) == sorted(c.key() for c in full_plan)
    assert score + sum(gx.weights[v] for v in red.conflict_free) == full_score


class TestLevelGeneration:
    def test_base_case_pairs(self):
        g = random_graph(5, 0.0, 1)  # no edges: all pairs valid
        level1 = [(v,) for v in ranked(g)]
        level2 = get_next_level(g, level1)
        assert len(level2) == 10

    def test_full_conflicts_no_pairs(self):
        g = random_graph(5, 1.0, 1)
        level1 = [(v,) for v in ranked(g)]
        assert get_next_level(g, level1) == []

    def test_plans_follow_key_order_not_vertex_order(self):
        wl = Workload.from_patterns([("A", "B")] * 2)
        g = SharonGraph(wl)
        for i in reversed(range(5)):  # vertex 0 has the largest key
            g.add_vertex(SharingCandidate((f"T{i}", f"U{i}"), frozenset({0, 1})), 1.0)
        g.adj[0].add(1)
        g.adj[1].add(0)
        keyed = [
            tuple(g.cands[v].key() for v in plan) for plan in all_valid_plans(g)
        ]
        assert all(list(k) == sorted(k) for k in keyed)
        for size in range(1, 5):
            level = [k for k in keyed if len(k) == size]
            assert level == sorted(level)
        assert len(keyed) == 2**5 - 1 - 2**3  # no plan holds both 0 and 1


class TestGraphConstructionWithCost:
    def test_non_beneficial_candidates_omitted(self):
        # High rates make short shared patterns with long remainders lose.
        wl = Workload.from_patterns(
            [("A", "B", "X1", "X2"), ("A", "B", "Y1", "Y2")]
        )
        cm = CostModel(wl, uniform_rates(wl.event_types, 100.0))
        g = build_graph(wl, sharable_patterns(wl), cost=cm)
        assert ("A", "B") not in [v.p for v in g.vertices]

    def test_beneficial_candidates_kept(self):
        wl = Workload.from_patterns(
            [("A", "B", "C", "D"), ("A", "B", "C", "E")]
        )
        cm = CostModel(wl, uniform_rates(wl.event_types, 10.0))
        g = build_graph(wl, sharable_patterns(wl), cost=cm)
        assert ("A", "B", "C") in [v.p for v in g.vertices]

    def test_duplicate_vertex_rejected(self):
        wl = Workload.from_patterns([("A", "B")] * 2)
        g = SharonGraph(wl)
        cand = SharingCandidate(("A", "B"), frozenset({0, 1}))
        g.add_vertex(cand, 1.0)
        with pytest.raises(ValueError):
            g.add_vertex(cand, 2.0)

    def test_remove_vertex_cleans_edges(self):
        g = random_graph(4, 1.0, 3)
        g.remove_vertex(0)
        assert 0 not in g.adj
        assert all(0 not in s for s in g.adj.values())
        assert g.n_edges == 3  # K4 minus a vertex = K3
