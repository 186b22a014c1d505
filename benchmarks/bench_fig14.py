"""Benchmarks behind Fig 14: A-Seq vs Sharon executor kernels on the
shared-core workload (20 queries, length 10, 10k events/window) plus the
query-count scaling points."""
import pytest

from repro.core.cost import CostModel
from repro.core.optimizer import sharon_optimizer
from repro.runtime.sharon import run_plan_pandas
from repro.workloads import rates_from_stream

WITHIN, DURATION = 600, 3600


def _setup(n_queries, evw=10000, plen=10, seed=1):
    from repro.experiments import _stream, fig14_workload

    wl = fig14_workload(n_queries, plen)
    pdf = _stream(wl, evw, n_keys=4, seed=seed)
    cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN, duration=DURATION))
    plan = sharon_optimizer(wl, cost).plan
    return wl, pdf, plan


@pytest.mark.parametrize("n_queries", [20, 40])
@pytest.mark.parametrize("engine", ["aseq", "sharon"])
def test_fig14_queries(benchmark, engine, n_queries):
    wl, pdf, plan = _setup(n_queries)
    p = None if engine == "aseq" else plan
    benchmark.pedantic(
        lambda: run_plan_pandas(pdf, wl, p), rounds=2, iterations=1, warmup_rounds=1
    )


@pytest.mark.parametrize("plen", [10, 20])
@pytest.mark.parametrize("engine", ["aseq", "sharon"])
def test_fig14_pattern_length(benchmark, engine, plen):
    wl, pdf, plan = _setup(20, plen=plen, seed=3)
    p = None if engine == "aseq" else plan
    benchmark.pedantic(
        lambda: run_plan_pandas(pdf, wl, p), rounds=2, iterations=1, warmup_rounds=1
    )
