"""Benchmarks behind Fig 16: the Sharon executor guided by a greedy vs
an optimal sharing plan on the GWMIN-trap workload (4 blocks, 32
queries)."""
import pytest

from repro.core.cost import CostModel, uniform_rates
from repro.core.optimizer import greedy_optimizer, sharon_optimizer
from repro.runtime.sharon import run_plan_pandas
from repro.workloads import gwmin_trap_workload

WITHIN, SLIDE = 600, 300


@pytest.fixture(scope="module")
def setup():
    from repro.experiments import _stream

    wl = gwmin_trap_workload(n_blocks=4, within=WITHIN, slide=SLIDE)
    pdf = _stream(wl, 10000, n_keys=4, seed=4)
    cost = CostModel(wl, uniform_rates(wl.event_types, 2.0))
    greedy = greedy_optimizer(wl, cost)
    optimal = sharon_optimizer(wl, cost, max_options=32)
    assert optimal.score > greedy.score  # the quality gap being measured
    return wl, pdf, {"greedy": greedy.plan, "optimal": optimal.plan}


@pytest.mark.parametrize("plan_name", ["greedy", "optimal"])
def test_fig16_executor_under_plan(benchmark, setup, plan_name):
    wl, pdf, plans = setup
    benchmark.pedantic(
        lambda: run_plan_pandas(pdf, wl, plans[plan_name]),
        rounds=2,
        iterations=1,
        warmup_rounds=1,
    )
