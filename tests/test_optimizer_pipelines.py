"""End-to-end optimizer pipelines (Section 8.3's GO / EO / SO): score
ordering (SO = EO >= GO), phase instrumentation, DNF guard, and plan
validity on the workload generators used by the benchmarks."""
import itertools

import pytest

from repro.core.cost import CostModel, uniform_rates
from repro.core.graph import in_conflict
from repro.core.optimizer import (
    exhaustive_optimizer,
    greedy_optimizer,
    reoptimize,
    sharon_optimizer,
)
from repro.workloads import (
    clustered_example_workload,
    purchase_workload,
    shared_core_workload,
    traffic_workload,
)


def cost_for(wl, rate=10.0):
    return CostModel(wl, uniform_rates(wl.event_types, rate))


@pytest.fixture(scope="module", params=["traffic", "purchase", "cluster2", "core10"])
def workload(request):
    return {
        "traffic": lambda: traffic_workload(),
        "purchase": lambda: purchase_workload(),
        "cluster2": lambda: clustered_example_workload(n_clusters=2),
        "core10": lambda: shared_core_workload(n_queries=10, pattern_len=6),
    }[request.param]()


class TestScoreOrdering:
    def test_sharon_at_least_greedy(self, workload):
        cost = cost_for(workload)
        so = sharon_optimizer(workload, cost)
        go = greedy_optimizer(workload, cost)
        assert so.score >= go.score - 1e-9

    def test_sharon_decomposed_same_score(self, workload):
        cost = cost_for(workload)
        a = sharon_optimizer(workload, cost, decompose=False)
        b = sharon_optimizer(workload, cost, decompose=True)
        assert abs(a.score - b.score) < 1e-9

    def test_plans_are_valid(self, workload):
        cost = cost_for(workload)
        for res in (
            sharon_optimizer(workload, cost),
            greedy_optimizer(workload, cost),
        ):
            for a, b in itertools.combinations(res.plan, 2):
                assert not in_conflict(workload, a, b)

    def test_phase_instrumentation(self, workload):
        cost = cost_for(workload)
        so = sharon_optimizer(workload, cost)
        assert set(so.phase_latency) == {"graph", "expand", "reduce", "finder"}
        assert so.latency > 0
        assert so.peak_memory > 0
        go = greedy_optimizer(workload, cost)
        assert set(go.phase_latency) == {"graph", "gwmin"}


class TestExhaustive:
    def test_exhaustive_matches_sharon_small(self):
        wl = traffic_workload()
        cost = cost_for(wl)
        eo = exhaustive_optimizer(wl, cost)
        so = sharon_optimizer(wl, cost)
        assert abs(eo.score - so.score) < 1e-9

    def test_dnf_guard_raises(self):
        wl = clustered_example_workload(n_clusters=6)  # 42 queries
        # Low rates keep enough candidates beneficial that the expanded
        # graph exceeds the vertex cap and the guard must fire.
        cost = cost_for(wl, rate=2.0)
        with pytest.raises(ValueError, match="DNF"):
            exhaustive_optimizer(wl, cost, max_vertices=20)


class TestClusteredWorkloadQualityGap:
    def test_greedy_suboptimal_on_clusters(self):
        # Each cluster replicates Example 12's 43-vs-50 structure under
        # the paper's weights; under the cost model the gap direction
        # must persist: optimal > greedy on at least rate-uniform input.
        wl = clustered_example_workload(n_clusters=3)
        cost = cost_for(wl, rate=10.0)
        so = sharon_optimizer(wl, cost)
        go = greedy_optimizer(wl, cost)
        assert so.score >= go.score

    def test_reoptimize_returns_sharon_result(self):
        wl = traffic_workload()
        res = reoptimize(wl, cost_for(wl))
        assert res.name == "sharon"
        assert res.score > 0

    def test_reoptimize_runs_decomposed_finder(self):
        # The as-printed finder's plan levels grow with the product of
        # the components' valid spaces; on 20-query workloads it runs
        # out of memory, so the dynamic hook must not use it.
        wl = clustered_example_workload(n_clusters=3)
        cost = cost_for(wl, rate=2.0)
        printed = sharon_optimizer(wl, cost, decompose=False)
        decomposed = sharon_optimizer(wl, cost, decompose=True)
        assert decomposed.phase_memory["finder"] < printed.phase_memory["finder"]
        res = reoptimize(wl, cost)
        assert res.phase_memory["finder"] == decomposed.phase_memory["finder"]
        assert sharon_optimizer(wl, cost).phase_memory == decomposed.phase_memory
        assert res.score == decomposed.score
