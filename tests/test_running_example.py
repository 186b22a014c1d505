"""Pin the paper's q1-q7 running example end to end: Table 1 (sharable
candidates), Figure 4 (graph shape), Examples 5, 7, 8, 9, 10 and 12
(scores, pruning arithmetic, optimal vs greedy plans). These are exact
numbers printed in the paper, so every assertion is a literal."""
import math

import pytest

from repro.core.ccspan import sharable_patterns
from repro.core.graph import build_graph
from repro.core.gwmin import guaranteed_weight, gwmin
from repro.core.planner import all_valid_plans, find_optimal_plan
from repro.core.reduce import reduce_graph, score_max
from tests.test_graph_and_planner import in_conflict
from repro.workloads import FIG4_WEIGHTS, traffic_workload

P1 = ("OakSt", "MainSt")
P2 = ("ParkAve", "OakSt")
P3 = ("ParkAve", "OakSt", "MainSt")
P4 = ("MainSt", "WestSt")
P5 = ("OakSt", "MainSt", "WestSt")
P6 = ("MainSt", "StateSt")
P7 = ("ElmSt", "ParkAve")

TABLE1 = {
    P1: {0, 1, 2, 3},
    P2: {2, 3},
    P3: {2, 3},
    P4: {1, 3},
    P5: {1, 3},
    P6: {0, 4},
    P7: {5, 6},
}


def vertex(graph, p):
    """The number of the graph's one vertex with pattern ``p`` (unique
    before expansion)."""
    (v,) = [v for v in graph.adj if graph.cands[v].p == p]
    return v


@pytest.fixture(scope="module")
def workload():
    return traffic_workload()


@pytest.fixture(scope="module")
def sharables(workload):
    return sharable_patterns(workload)


@pytest.fixture(scope="module")
def graph(workload, sharables):
    return build_graph(workload, sharables, weights=FIG4_WEIGHTS)


class TestTable1:
    """Appendix A's modified CCSpan recovers exactly Table 1."""

    def test_candidate_count(self, sharables):
        assert len(sharables) == 7

    @pytest.mark.parametrize("p,qids", sorted(TABLE1.items()))
    def test_candidate(self, sharables, p, qids):
        assert sharables[p] == frozenset(qids)


class TestFigure4Graph:
    def test_seven_vertices(self, graph):
        assert len(graph.vertices) == 7

    @pytest.mark.parametrize(
        "p,degree",
        [(P1, 5), (P2, 3), (P3, 4), (P4, 3), (P5, 4), (P6, 1), (P7, 0)],
    )
    def test_degrees(self, graph, p, degree):
        assert len(graph.adj[vertex(graph, p)]) == degree

    @pytest.mark.parametrize("p,w", sorted(FIG4_WEIGHTS.items()))
    def test_weights(self, graph, p, w):
        assert graph.weight(vertex(graph, p)) == w

    def test_edges(self, graph):
        # Edges of Figure 4: p1 to p2..p6; p3's other conflicts; p5's.
        expected = {
            frozenset((P1, P2)),
            frozenset((P1, P3)),
            frozenset((P1, P4)),
            frozenset((P1, P5)),
            frozenset((P1, P6)),
            frozenset((P2, P3)),
            frozenset((P2, P5)),
            frozenset((P3, P4)),
            frozenset((P3, P5)),
            frozenset((P4, P5)),
        }
        got = set()
        for v in graph.adj:
            for u in graph.adj[v]:
                got.add(frozenset((graph.cands[v].p, graph.cands[u].p)))
        assert got == expected

    def test_conflict_is_symmetric(self, workload, graph):
        for v in graph.vertices:
            for u in graph.vertices:
                assert in_conflict(workload, v, u) == in_conflict(workload, u, v)


class TestExample5Scores:
    def test_valid_plan_score_24(self, graph):
        a = vertex(graph, P2)
        b = vertex(graph, P4)
        assert b not in graph.adj[a]
        assert graph.weight(a) + graph.weight(b) == 24.0

    def test_p1_plan_scores_25(self, graph):
        assert graph.weight(vertex(graph, P1)) == 25.0


class TestExample7Pruning:
    def test_guaranteed_weight(self, graph):
        expected = 25 / 6 + 9 / 4 + 12 / 5 + 15 / 4 + 20 / 5 + 8 / 2 + 18 / 1
        assert math.isclose(guaranteed_weight(graph), expected)
        assert math.isclose(expected, 38.57, abs_tol=5e-3)  # paper: ~38.57

    def test_score_max_p3_is_38(self, graph):
        assert score_max(graph, vertex(graph, P3)) == 38.0

    def test_p3_is_conflict_ridden(self, graph):
        assert score_max(graph, vertex(graph, P3)) < guaranteed_weight(graph)


class TestReduction:
    @pytest.fixture(scope="class")
    def reduced(self, graph):
        return reduce_graph(graph, guaranteed_weight(graph))

    def test_p7_extracted_conflict_free(self, reduced):
        assert [reduced.graph.cands[v].p for v in reduced.conflict_free] == [P7]

    def test_p3_pruned(self, reduced):
        assert [reduced.graph.cands[v].p for v in reduced.pruned] == [P3]

    def test_reduced_graph_has_five_vertices(self, reduced):
        # Example 9: search space shrinks from 2^7 to 2^5 (by 96 plans).
        assert len(reduced.graph.vertices) == 5
        assert {v.p for v in reduced.graph.vertices} == {P1, P2, P4, P5, P6}

    def test_example9_search_space_reduction(self, reduced):
        full, kept = 2**7, 2 ** len(reduced.graph.vertices)
        assert full - kept == 96
        assert math.isclose((full - kept) / (full - 1), 0.7559, abs_tol=1e-3)

    def test_example10_valid_space_is_10_plans(self, reduced):
        plans = all_valid_plans(reduced.graph)
        assert len(plans) == 10
        # 21 invalid plans = 2^5 non-reduced - 10 valid - 1 empty.
        assert 2**5 - len(plans) - 1 == 21
        assert math.isclose(len(plans) / (2**7 - 1), 0.0787, abs_tol=1e-3)


class TestPlanFinder:
    def test_optimal_plan_and_score_50(self, graph):
        red = reduce_graph(graph, guaranteed_weight(graph))
        plan, score = find_optimal_plan(red.graph, red.conflict_free)
        score += sum(graph.weight(v) for v in red.conflict_free)
        assert {v.p for v in plan} == {P2, P4, P6, P7}
        assert score == 50.0

    def test_example12_greedy_plan_scores_43(self, graph):
        plan = gwmin(graph)
        assert {graph.cands[v].p for v in plan} == {P1, P7}
        assert sum(graph.weight(v) for v in plan) == 43.0

    def test_optimal_beats_greedy_by_16_percent(self, graph):
        # Example 12: 43 -> 50 is a >16% improvement.
        assert (50.0 - 43.0) / 43.0 > 0.16

    def test_finder_without_reduction_agrees(self, graph):
        plan, score = find_optimal_plan(graph)
        assert {v.p for v in plan} == {P2, P4, P6, P7}
        assert score == 50.0


class TestPurchaseWorkload:
    def test_laptop_case_shared_by_all_four(self):
        from repro.workloads import purchase_workload

        s = sharable_patterns(purchase_workload())
        assert s[("Laptop", "Case")] == frozenset({0, 1, 2, 3})
