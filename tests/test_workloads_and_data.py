"""Workload generators, stream generators and the modeled memory
metrics that back the evaluation sweeps."""
import math

import pytest

from repro import experiments

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.optimizer import sharon_optimizer
from repro.runtime import metrics
from repro.synth_data import (
    ecommerce_stream,
    event_stream,
    linear_road_stream,
    traffic_stream,
)
from repro.workloads import (
    TRAFFIC_PATTERNS,
    clustered_example_workload,
    rates_from_stream,
    shared_core_workload,
    stream_for_workload,
    traffic_workload,
)


class TestStreamGenerators:
    def test_event_stream_shape_and_determinism(self):
        a = event_stream(n_events=500, types=["A", "B"], n_keys=4, seed=9)
        b = event_stream(n_events=500, types=["A", "B"], n_keys=4, seed=9)
        assert list(a.columns) == ["time", "key", "type"]
        assert len(a) == 500
        assert a.equals(b)
        assert (a["time"].diff().dropna() >= 0).all()

    def test_different_seed_differs(self):
        a = event_stream(n_events=200, types=["A", "B"], seed=1)
        b = event_stream(n_events=200, types=["A", "B"], seed=2)
        assert not a.equals(b)

    def test_key_and_type_domains(self):
        s = event_stream(n_events=300, types=["A", "B", "C"], n_keys=5, seed=3)
        assert set(s["type"]) <= {"A", "B", "C"}
        assert s["key"].between(0, 4).all()

    def test_zipf_skews_types(self):
        s = event_stream(
            n_events=5000, types=[f"T{i}" for i in range(20)], seed=4, type_alpha=1.5
        )
        counts = s["type"].value_counts()
        assert counts.iloc[0] > 3 * counts.iloc[-1]

    def test_ramp_increases_rate(self):
        s = linear_road_stream(
            n_events=4000, types=["A", "B"], duration=1000, seed=5
        )
        first_half = (s["time"] < 500).sum()
        second_half = (s["time"] >= 500).sum()
        assert second_half > 1.5 * first_half

    def test_ecommerce_defaults(self):
        s = ecommerce_stream(n_events=1000, seed=6)
        assert s["type"].str.startswith("Item").all()
        assert s["key"].nunique() <= 20

    def test_traffic_stream_uses_given_types(self):
        types = sorted({t for p in TRAFFIC_PATTERNS for t in p})
        s = traffic_stream(n_events=400, types=types, seed=7)
        assert set(s["type"]) <= set(types)


class TestWorkloadGenerators:
    @pytest.mark.parametrize("n_queries,plen", [(5, 4), (10, 6), (20, 10), (21, 7)])
    def test_shared_core_shapes(self, n_queries, plen):
        wl = shared_core_workload(n_queries=n_queries, pattern_len=plen)
        assert len(wl) == n_queries
        assert all(q.length == plen for q in wl)
        # Types unique within each pattern (paper assumption 3).
        for q in wl:
            assert len(set(q.pattern)) == q.length

    def test_shared_core_has_sharing(self):
        wl = shared_core_workload(n_queries=10, pattern_len=8, family_size=5)
        s = sharable_patterns(wl)
        full_core = [p for p, qids in s.items() if len(qids) == 5]
        assert full_core, "each family's core should be shared by 5 queries"

    def test_clustered_replicates_running_example(self):
        wl = clustered_example_workload(n_clusters=3)
        assert len(wl) == 21
        s = sharable_patterns(wl)
        # Each cluster contributes its own 7 candidates.
        assert len(s) == 21

    def test_cluster_namespaces_disjoint(self):
        wl = clustered_example_workload(n_clusters=2)
        t0 = {t for q in wl.queries[:7] for t in q.pattern}
        t1 = {t for q in wl.queries[7:] for t in q.pattern}
        assert not (t0 & t1)

    def test_rates_from_stream(self):
        s = event_stream(n_events=1000, types=["A", "B"], duration=1000, seed=1)
        r = rates_from_stream(s, within=100)
        assert set(r) == {"A", "B"}
        assert sum(r.values()) == pytest.approx(100.0, rel=0.05)

    def test_stream_for_workload_covers_types(self):
        wl = traffic_workload()
        s = stream_for_workload(wl, n_events=2000, seed=2)
        assert set(s["type"]) <= wl.event_types


class TestMemoryModel:
    def test_sharon_fewer_aggregates_than_aseq(self):
        wl = shared_core_workload(n_queries=20, pattern_len=10)
        cost = CostModel(wl, uniform_rates(wl.event_types, 10.0))
        plan = sharon_optimizer(wl, cost, decompose=True).plan
        a = metrics.aseq_aggregates(wl, cost)
        s = metrics.sharon_aggregates(wl, cost, plan)
        assert s < a

    def test_empty_plan_equals_aseq(self):
        wl = traffic_workload()
        cost = CostModel(wl, uniform_rates(wl.event_types, 10.0))
        assert metrics.sharon_aggregates(wl, cost, []) == metrics.aseq_aggregates(
            wl, cost
        )

    def test_twostep_dominates_online_memory(self):
        wl = shared_core_workload(n_queries=10, pattern_len=6)
        cost = CostModel(wl, uniform_rates(wl.event_types, 20.0))
        assert metrics.twostep_sequences(wl, cost) > metrics.aseq_aggregates(
            wl, cost
        )

    def test_aggregates_to_bytes(self):
        assert metrics.aggregates_to_bytes(10) == 80


class TestSequenceEstimate:
    """Both sequence-count estimates share one prod(rate) / l! helper;
    their figures, and so Fig 13's DNF decisions, must not move."""

    @pytest.mark.parametrize("evw", [500, 8000])
    def test_callers_unchanged_on_fig13(self, evw):
        n_keys = 8
        wl = shared_core_workload(
            n_queries=6,
            pattern_len=4,
            family_size=3,
            core_frac=0.5,
            within=experiments.WITHIN,
            slide=experiments.SLIDE,
        )
        pdf = experiments._stream(wl, evw, n_keys=n_keys, seed=0, ramp=True)
        rates = rates_from_stream(
            pdf, within=experiments.WITHIN, duration=experiments.DURATION
        )
        cost = CostModel(wl, rates)
        # Each caller's formula as it was written out before the helper.
        per_key = 0.0
        for q in wl:
            prod = 1.0
            for t in q.pattern:
                prod *= rates.get(t, 0.0) / n_keys
            per_key += prod / math.factorial(len(q.pattern))
        stored = 0.0
        for q in wl:
            seqs = 1.0
            for t in q.pattern:
                seqs *= cost.rate(t)
            seqs /= math.factorial(len(q.pattern))
            stored += seqs * len(q.pattern)
        assert experiments._per_key_sequence_estimate(
            wl, rates, n_keys
        ) == per_key * n_keys * experiments._nwin()
        assert metrics.twostep_sequences(wl, cost) == stored
