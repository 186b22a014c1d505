"""Conflict resolution / candidate expansion tests (Section 7.1,
Algorithms 5-6), pinned to the paper's Examples 13-15 on the q1-q7
running example (query ids: q1=0 ... q7=6)."""
from itertools import combinations

import pytest

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import (
    conflict_causing_queries,
    expand_candidate,
    expand_graph,
)
from repro.core.graph import SharonGraph, build_graph, in_conflict
from repro.core.gwmin import guaranteed_weight
from repro.core.model import SharingCandidate, Workload
from repro.core.optimizer import sharon_optimizer
from repro.core.planner import find_optimal_plan, find_optimal_plan_decomposed
from repro.core.reduce import reduce_graph
from repro.workloads import (
    FIG4_WEIGHTS,
    clustered_example_workload,
    shared_core_workload,
    traffic_workload,
)

P1 = ("OakSt", "MainSt")
P2 = ("ParkAve", "OakSt")
P4 = ("MainSt", "WestSt")
P5 = ("OakSt", "MainSt", "WestSt")


@pytest.fixture(scope="module")
def workload():
    return traffic_workload()


@pytest.fixture(scope="module")
def graph(workload):
    return build_graph(workload, sharable_patterns(workload), weights=FIG4_WEIGHTS)


@pytest.fixture(scope="module")
def cost(workload):
    return CostModel(workload, uniform_rates(workload.event_types, 10.0))


class TestConflictCauses:
    def test_p1_p2_caused_by_q3_q4(self, workload, graph):
        v = graph.find_vertex(P1)
        u = graph.find_vertex(P2)
        assert conflict_causing_queries(workload, v, u) == frozenset({2, 3})

    def test_p1_p4_caused_by_q2_q4(self, workload, graph):
        v = graph.find_vertex(P1)
        u = graph.find_vertex(P4)
        assert conflict_causing_queries(workload, v, u) == frozenset({1, 3})

    def test_p1_p6_caused_by_q1(self, workload, graph):
        v = graph.find_vertex(P1)
        u = graph.find_vertex(("MainSt", "StateSt"))
        assert conflict_causing_queries(workload, v, u) == frozenset({0})


class TestExample13and14:
    def test_option_q1_q3_resolves_p4_p5_conflicts(self, workload, graph):
        opts = expand_candidate(graph, graph.find_vertex(P1))
        by_qids = {o.qids: o for o in opts}
        opt = by_qids[frozenset({0, 2})]  # (p1, {q1, q3})
        p4 = graph.find_vertex(P4)
        p5 = graph.find_vertex(P5)
        assert not in_conflict(workload, opt, p4)
        assert not in_conflict(workload, opt, p5)

    def test_figure11_child_q1_q2(self, workload, graph):
        # Dropping the {q3, q4} cause of the p2/p3 conflicts yields (p1, {q1, q2}).
        opts = expand_candidate(graph, graph.find_vertex(P1))
        assert frozenset({0, 1}) in {o.qids for o in opts}

    def test_all_options_keep_two_queries(self, graph):
        opts = expand_candidate(graph, graph.find_vertex(P1))
        assert all(len(o.qids) > 1 for o in opts)

    def test_original_candidate_in_options(self, graph):
        v = graph.find_vertex(P1)
        assert v.qids in {o.qids for o in expand_candidate(graph, v)}

    def test_conflict_free_candidate_not_expanded(self, graph):
        v = graph.find_vertex(("ElmSt", "ParkAve"))
        assert expand_candidate(graph, v) == [v]

    def test_example15_p2_expands_to_itself_only(self, graph):
        # Dropping any cause of p2's conflicts leaves < 2 queries.
        v = graph.find_vertex(P2)
        assert [o.qids for o in expand_candidate(graph, v)] == [v.qids]


class TestExpandedGraph:
    @pytest.fixture(scope="class")
    def expanded(self, graph, cost):
        return expand_graph(graph, cost)

    def test_strictly_more_vertices(self, graph, expanded):
        assert len(expanded.vertices) > len(graph.vertices)

    def test_original_candidates_present_with_weights(self, graph, expanded):
        keys = {v.key() for v in expanded.vertices}
        for v in graph.vertices:
            assert v.key() in keys
            assert expanded.weight(v) == graph.weight(v)

    def test_options_of_same_pattern_conflict_on_shared_queries(
        self, workload, expanded
    ):
        p1_opts = [v for v in expanded.vertices if v.p == P1]
        assert len(p1_opts) > 1
        for a in p1_opts:
            for b in p1_opts:
                if a is b:
                    continue
                assert expanded.has_edge(a, b) == bool(a.qids & b.qids)

    def test_expanded_plan_at_least_as_good(self, graph, expanded):
        _, base = find_optimal_plan(graph)
        red = reduce_graph(expanded, guaranteed_weight(expanded))
        _, score = find_optimal_plan(red.graph, red.conflict_free)
        score += sum(expanded.weight(v) for v in red.conflict_free)
        assert score >= base


class TestExpansionElsewhere:
    def test_purchase_workload_expansion_runs(self):
        from repro.workloads import purchase_workload

        wl = purchase_workload()
        cost = CostModel(wl, uniform_rates(wl.event_types, 10.0))
        g = build_graph(wl, sharable_patterns(wl), cost=cost)
        gx = expand_graph(g, cost)
        assert len(gx.vertices) >= len(g.vertices)

    def test_disjoint_option_pairs_can_coexist(self, workload, graph):
        v = graph.find_vertex(P1)
        opts = expand_candidate(graph, v)
        by_qids = {o.qids: o for o in opts}
        a = by_qids.get(frozenset({0, 1}))
        b = by_qids.get(frozenset({2, 3}))
        if a is not None and b is not None:
            assert not in_conflict(workload, a, b)


def _pairwise_options(graph, v, max_options):
    """Reference Alg 5: every option re-derives its causes against u."""
    options = {v.qids: v}
    current = [v]
    while current and len(options) < max_options:
        nxt = []
        for cand in current:
            for u in graph.neighbors(v):
                qc = conflict_causing_queries(graph.workload, cand, u)
                for r in range(1, len(qc) + 1):
                    for combo in combinations(sorted(qc), r):
                        qp = cand.qids - set(combo)
                        if len(qp) > 1 and qp not in options:
                            options[qp] = SharingCandidate(v.p, frozenset(qp))
                            nxt.append(options[qp])
                            if len(options) >= max_options:
                                return list(options.values())
        current = nxt
    return list(options.values())


def _pairwise_expand_graph(graph, cost, max_options=128):
    """Reference Alg 6: ``add_vertex`` tests every option pair with
    ``in_conflict``."""
    ref = SharonGraph(graph.workload)
    for v in graph.vertices:
        for opt in _pairwise_options(graph, v, max_options):
            if opt.key() in ref.adj:
                continue
            w = graph.weight(v) if opt.key() == v.key() else cost.bvalue(opt)
            if w > 0:
                ref.add_vertex(opt, w)
    return ref


def _fig4_case():
    wl = traffic_workload()
    cost = CostModel(wl, uniform_rates(wl.event_types, 10.0))
    return wl, cost, build_graph(wl, sharable_patterns(wl), weights=FIG4_WEIGHTS)


def _cost_case(wl, rate=2.0):
    cost = CostModel(wl, uniform_rates(wl.event_types, rate))
    return wl, cost, build_graph(wl, sharable_patterns(wl), cost=cost)


DIFF_CASES = {
    "fig4": _fig4_case,
    "clustered3": lambda: _cost_case(clustered_example_workload(n_clusters=3)),
    "shared_core": lambda: _cost_case(
        shared_core_workload(n_queries=8, pattern_len=5, family_size=4, core_frac=0.8)
    ),
    # Repeated types (Section 7.3): (A,B) and (B,C) overlap in q0 and q2
    # but not in q1 or q3, so C(v, u) is a strict subset of Q_v ∩ Q_u.
    # Without repeats any two patterns sharing a query and a type overlap.
    "repeated_types": lambda: _cost_case(
        Workload.from_patterns(
            [
                ("A", "B", "C"),
                ("B", "C", "D", "A", "B"),
                ("A", "B", "C", "E"),
                ("B", "C", "F", "A", "B"),
            ]
        )
    ),
}


class TestDerivedEdgesMatchPairwise:
    """``expand_graph`` derives option edges from base-edge conflict sets;
    it must equal the pairwise construction down to insertion order."""

    @pytest.mark.parametrize(
        "case,max_options",
        [
            ("fig4", 128),
            ("clustered3", 128),
            ("shared_core", 128),
            ("shared_core", 4),
            ("repeated_types", 128),
        ],
    )
    def test_same_vertices_weights_and_adjacency(self, case, max_options):
        _, cost, g = DIFF_CASES[case]()
        if max_options < 128:  # the case must really truncate
            assert any(
                len(expand_candidate(g, v)) > max_options for v in g.vertices
            )
        got = expand_graph(g, cost, max_options)
        ref = _pairwise_expand_graph(g, cost, max_options)
        assert got.n_edges > 0
        assert [v.key() for v in got.vertices] == [v.key() for v in ref.vertices]
        assert list(got.weights.items()) == list(ref.weights.items())
        # Same members inserted in the same order: same iteration order,
        # which is what BFS neighbour order and float sums over sets see.
        assert list(got.adj) == list(ref.adj)
        assert {k: list(s) for k, s in got.adj.items()} == {
            k: list(s) for k, s in ref.adj.items()
        }

    @pytest.mark.parametrize("case", ["clustered3", "shared_core", "repeated_types"])
    @pytest.mark.parametrize("decompose", [False, True])
    def test_sharon_optimizer_plan_unchanged(self, case, decompose):
        wl, cost, g = DIFF_CASES[case]()
        ref = _pairwise_expand_graph(g, cost)
        red = reduce_graph(ref, guaranteed_weight(ref))
        finder = find_optimal_plan_decomposed if decompose else find_optimal_plan
        plan, score = finder(red.graph, red.conflict_free)
        score += sum(ref.weight(v) for v in red.conflict_free)
        res = sharon_optimizer(wl, cost, decompose=decompose)
        assert res.plan == plan
        assert res.score == score
