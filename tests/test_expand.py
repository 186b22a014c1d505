"""Conflict resolution / candidate expansion tests (Section 7.1,
Algorithms 5-6), pinned to the paper's Examples 13-15 on the q1-q7
running example (query ids: q1=0 ... q7=6)."""
import os
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import repro

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import expand_candidate, expand_graph
from repro.core.graph import SharonGraph, build_graph, conflict_causing_queries
from repro.core.gwmin import guaranteed_weight
from repro.core.model import SharingCandidate, Workload
from repro.core.optimizer import sharon_optimizer
from repro.core.planner import find_optimal_plan, find_optimal_plan_decomposed
from repro.core.reduce import reduce_components, reduce_graph
from tests.test_graph_and_planner import in_conflict
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


def vertex(graph, p):
    """The number of the graph's one vertex with pattern ``p`` (unique
    before expansion)."""
    (v,) = [v for v in graph.adj if graph.cands[v].p == p]
    return v


def causes(graph, v, u):
    """C(v, u) from the occurrences the graph holds."""
    return conflict_causing_queries(
        graph.cands[v], graph.occ[v], graph.cands[u], graph.occ[u]
    )


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
        v = vertex(graph, P1)
        u = vertex(graph, P2)
        assert causes(graph, v, u) == frozenset({2, 3})

    def test_p1_p4_caused_by_q2_q4(self, workload, graph):
        v = vertex(graph, P1)
        u = vertex(graph, P4)
        assert causes(graph, v, u) == frozenset({1, 3})

    def test_p1_p6_caused_by_q1(self, workload, graph):
        v = vertex(graph, P1)
        u = vertex(graph, ("MainSt", "StateSt"))
        assert causes(graph, v, u) == frozenset({0})


class TestExample13and14:
    def test_option_q1_q3_resolves_p4_p5_conflicts(self, workload, graph):
        opts = expand_candidate(graph, vertex(graph, P1))
        by_qids = {o.qids: o for o in opts}
        opt = by_qids[frozenset({0, 2})]  # (p1, {q1, q3})
        p4 = graph.cands[vertex(graph, P4)]
        p5 = graph.cands[vertex(graph, P5)]
        assert not in_conflict(workload, opt, p4)
        assert not in_conflict(workload, opt, p5)

    def test_figure11_child_q1_q2(self, workload, graph):
        # Dropping the {q3, q4} cause of the p2/p3 conflicts yields (p1, {q1, q2}).
        opts = expand_candidate(graph, vertex(graph, P1))
        assert frozenset({0, 1}) in {o.qids for o in opts}

    def test_all_options_keep_two_queries(self, graph):
        opts = expand_candidate(graph, vertex(graph, P1))
        assert all(len(o.qids) > 1 for o in opts)

    def test_original_candidate_in_options(self, graph):
        v = vertex(graph, P1)
        assert graph.cands[v].qids in {o.qids for o in expand_candidate(graph, v)}

    def test_conflict_free_candidate_not_expanded(self, graph):
        v = vertex(graph, ("ElmSt", "ParkAve"))
        assert expand_candidate(graph, v) == [graph.cands[v]]

    def test_example15_p2_expands_to_itself_only(self, graph):
        # Dropping any cause of p2's conflicts leaves < 2 queries.
        v = vertex(graph, P2)
        assert [o.qids for o in expand_candidate(graph, v)] == [graph.cands[v].qids]


class TestExpandedGraph:
    @pytest.fixture(scope="class")
    def expanded(self, graph, cost):
        return expand_graph(graph, cost)

    def test_strictly_more_vertices(self, graph, expanded):
        assert len(expanded.vertices) > len(graph.vertices)

    def test_original_candidates_present_with_weights(self, graph, expanded):
        number = {c.key(): v for v, c in enumerate(expanded.cands)}
        for v, c in enumerate(graph.cands):
            assert c.key() in number
            assert expanded.weight(number[c.key()]) == graph.weight(v)

    def test_options_of_same_pattern_conflict_on_shared_queries(
        self, workload, expanded
    ):
        p1_opts = [v for v in expanded.adj if expanded.cands[v].p == P1]
        assert len(p1_opts) > 1
        for a in p1_opts:
            for b in p1_opts:
                if a == b:
                    continue
                shared = expanded.cands[a].qids & expanded.cands[b].qids
                assert (b in expanded.adj[a]) == bool(shared)

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
        opts = expand_candidate(graph, vertex(graph, P1))
        by_qids = {o.qids: o for o in opts}
        a = by_qids.get(frozenset({0, 1}))
        b = by_qids.get(frozenset({2, 3}))
        if a is not None and b is not None:
            assert not in_conflict(workload, a, b)


_EXPAND_TRAP = """
from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import expand_graph
from repro.core.graph import build_graph
from repro.workloads import gwmin_trap_workload

wl = gwmin_trap_workload(n_blocks=1)
cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
gx = expand_graph(build_graph(wl, sharable_patterns(wl), cost=cost), cost, 32)
print([v.key() for v in gx.vertices])
"""


def _under_hash_seeds(script):
    """``script``'s standard output under PYTHONHASHSEED 0 and 1."""
    src = str(Path(repro.__file__).parents[1])
    return [
        subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in ("0", "1")
    ]


def test_expansion_independent_of_hash_seed():
    # max_options truncates here, so the options kept depend on the order
    # in which Alg 5 walks each candidate's neighbours and their causes;
    # nothing on that path may follow the order of a set of strings.
    keys = _under_hash_seeds(_EXPAND_TRAP)
    assert keys[0] == keys[1]


# Alg 2 on the expanded shared_core graph (369 options), weighted by the
# rates of a generated stream so that the BValues are not round numbers.
_REDUCE_SHARED_CORE = """
from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel
from repro.core.expand import expand_graph
from repro.core.graph import build_graph
from repro.core.gwmin import guaranteed_weight
from repro.core.optimizer import sharon_optimizer
from repro.core.reduce import reduce_graph, score_max
from repro.workloads import rates_from_stream, shared_core_workload, stream_for_workload

wl = shared_core_workload(
    n_queries=20, pattern_len=10, family_size=4, core_frac=0.8, within=600, slide=300
)
ev = stream_for_workload(wl, n_events=6000, n_keys=4, duration=3600, seed=1)
cost = CostModel(wl, rates_from_stream(ev, within=600, duration=3600))
gx = expand_graph(build_graph(wl, sharable_patterns(wl), cost=cost), cost)
red = reduce_graph(gx, guaranteed_weight(gx))
res = sharon_optimizer(wl, cost)
print(len(gx.vertices))
print([score_max(gx, v).hex() for v in gx.adj])
print([gx.cands[v].key() for v in red.conflict_free + red.pruned])
print(sorted(c.key() for c in res.plan), res.score.hex())
"""


def test_reduction_independent_of_hash_seed():
    # Score_max subtracts v's summed neighbour weights, whose last bits
    # must not follow the order of any set.
    out = _under_hash_seeds(_REDUCE_SHARED_CORE)
    assert int(out[0].split("\n")[0]) > 300
    assert out[0] == out[1]


def _pairwise_options(graph, v, max_options):
    """Reference Alg 5: every option re-derives its causes against u,
    on frozensets of queries."""
    root = graph.cands[v]
    options = {root.qids: root}
    current = [root]
    while current and len(options) < max_options:
        nxt = []
        for cand in current:
            for u in sorted(graph.adj[v]):
                qc = cand.qids & causes(graph, v, u)
                for r in range(1, len(qc) + 1):
                    for combo in combinations(sorted(qc), r):
                        qp = cand.qids - set(combo)
                        if len(qp) > 1 and qp not in options:
                            options[qp] = SharingCandidate(root.p, frozenset(qp))
                            nxt.append(options[qp])
                            if len(options) >= max_options:
                                return list(options.values())
        current = nxt
    return list(options.values())


def _pairwise_expand_graph(graph, cost, max_options=128):
    """Reference Alg 6: ``add_vertex`` tests every option pair with
    ``in_conflict``."""
    ref = SharonGraph(graph.workload)
    for v in graph.adj:
        for opt in _pairwise_options(graph, v, max_options):
            w = graph.weight(v) if opt == graph.cands[v] else cost.bvalue(opt)
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
                len(expand_candidate(g, v)) > max_options for v in g.adj
            )
        got = expand_graph(g, cost, max_options)
        ref = _pairwise_expand_graph(g, cost, max_options)
        assert got.n_edges > 0
        # Same candidates in the same order, so the same vertex numbers.
        assert [v.key() for v in got.vertices] == [v.key() for v in ref.vertices]
        assert got.weights == ref.weights
        assert list(got.adj) == list(ref.adj)
        assert got.adj == ref.adj

    @pytest.mark.parametrize("case", ["clustered3", "shared_core", "repeated_types"])
    @pytest.mark.parametrize("decompose", [False, True])
    def test_sharon_optimizer_plan_unchanged(self, case, decompose):
        wl, cost, g = DIFF_CASES[case]()
        ref = _pairwise_expand_graph(g, cost)
        if decompose:
            red, finder = reduce_components(ref), find_optimal_plan_decomposed
        else:
            red, finder = reduce_graph(ref, guaranteed_weight(ref)), find_optimal_plan
        plan, score = finder(red.graph, red.conflict_free)
        score += sum(ref.weight(v) for v in red.conflict_free)
        res = sharon_optimizer(wl, cost, decompose=decompose)
        assert res.plan == plan
        assert res.score == score


def _resumming_reduce(graph, min_weight):
    """Alg 2 with Score_max re-summing every weight on each call (the
    O(V) form ``reduce_graph`` replaced); returns (free, pruned, kept)
    vertex numbers."""
    g = graph.copy()
    free, pruned, free_weight = [], [], 0.0
    changed = True
    while changed:
        changed = False
        for v in list(g.adj):
            if not g.adj[v]:
                free.append(v)
                free_weight += g.weight(v)
            elif (
                free_weight
                + sum(g.weights[u] for u in g.adj)
                - sum(g.weights[u] for u in g.adj[v])
                < min_weight
            ):
                pruned.append(v)
            else:
                continue
            g.remove_vertex(v)
            changed = True
    return free, pruned, list(g.adj)


class TestReduceRunningTotal:
    """``reduce_graph`` sums the graph's weights once per removal, not
    once per Score_max call; its decisions must not change."""

    # fig4 prunes and extracts; shared_core keeps every vertex, so each
    # of its Score_max comparisons must still come out the same.
    @pytest.mark.parametrize("case", ["fig4", "shared_core", "repeated_types"])
    @pytest.mark.parametrize("expanded", [False, True])
    def test_same_pruned_and_conflict_free(self, case, expanded):
        _, cost, g = DIFF_CASES[case]()
        if expanded:
            g = expand_graph(g, cost)
        bound = guaranteed_weight(g)
        red = reduce_graph(g, bound)
        free, pruned, kept = _resumming_reduce(g, bound)
        assert red.conflict_free == free
        assert red.pruned == pruned
        assert list(red.graph.adj) == kept
        assert bool(red.pruned or red.conflict_free) == (case != "shared_core")
