"""Benchmarks behind Fig 13: each engine (two-step and online) over the
same Linear-Road-analogue stream at 1000 events/window. One round per
engine — these are whole Spark jobs, and the figure's gaps are orders
of magnitude."""
import pytest

from repro.core.cost import CostModel
from repro.core.optimizer import sharon_optimizer
from repro.runtime.sharon import run_plan
from repro.runtime.twostep import flink_like, spass_like
from repro.workloads import rates_from_stream, shared_core_workload

EVW = 1000
WITHIN, SLIDE, DURATION = 600, 300, 3600


@pytest.fixture(scope="module")
def setup(spark):
    from repro.experiments import _stream

    wl = shared_core_workload(
        n_queries=6, pattern_len=4, family_size=3, core_frac=0.5,
        within=WITHIN, slide=SLIDE,
    )
    pdf = _stream(wl, EVW, n_keys=8, seed=0, ramp=True)
    sdf = spark.createDataFrame(pdf).cache()
    sdf.count()
    cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN, duration=DURATION))
    plan = sharon_optimizer(wl, cost).plan
    return wl, sdf, plan


@pytest.mark.parametrize("engine", ["flink", "spass", "aseq", "sharon"])
def test_fig13_engine(benchmark, setup, engine):
    wl, sdf, plan = setup
    builders = {
        "flink": lambda: flink_like(sdf, wl).count(),
        "spass": lambda: spass_like(sdf, wl, plan).count(),
        "aseq": lambda: run_plan(sdf, wl, None).count(),
        "sharon": lambda: run_plan(sdf, wl, plan).count(),
    }
    # Two warm-up rounds: the first Spark job per engine pays one-time
    # codegen/python-worker startup that is not what Fig 13 measures.
    benchmark.pedantic(builders[engine], rounds=2, iterations=1, warmup_rounds=2)
