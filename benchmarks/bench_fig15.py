"""Benchmarks behind Fig 15: the three optimizer pipelines on
running-example clusters (7 queries each), plus the Sharon optimizer on
a Fig 14 workload whose expansion grows 110 candidates into 810 options."""
import pytest

from repro.core.cost import CostModel, uniform_rates
from repro.core.optimizer import (
    exhaustive_optimizer,
    greedy_optimizer,
    sharon_optimizer,
)
from repro.workloads import clustered_example_workload, shared_core_workload


def _cost(wl):
    return CostModel(wl, uniform_rates(wl.event_types, 2.0))


@pytest.mark.parametrize("n_clusters", [2, 4])
def test_fig15_greedy(benchmark, n_clusters):
    wl = clustered_example_workload(n_clusters=n_clusters)
    benchmark(lambda: greedy_optimizer(wl, _cost(wl)))


@pytest.mark.parametrize("n_clusters", [2, 4])
def test_fig15_sharon(benchmark, n_clusters):
    wl = clustered_example_workload(n_clusters=n_clusters)
    benchmark(lambda: sharon_optimizer(wl, _cost(wl), decompose=False))


def test_fig15_sharon_shared_core(benchmark):
    wl = shared_core_workload(
        n_queries=20, pattern_len=10, family_size=4, core_frac=0.8
    )
    benchmark(lambda: sharon_optimizer(wl, _cost(wl)))


def test_fig15_exhaustive(benchmark):
    # EO only terminates on small workloads (the paper's EO fails beyond
    # 20 queries); 2 clusters = 14 queries is its last feasible point.
    wl = clustered_example_workload(n_clusters=2)
    benchmark.pedantic(
        lambda: exhaustive_optimizer(wl, _cost(wl)),
        rounds=2,
        iterations=1,
        warmup_rounds=0,
    )
