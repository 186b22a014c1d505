"""Golden optimizer outputs: the expanded graph, the Sharon optimizer's
plan and score (both finders) and the greedy plan, pinned bit for bit on
the two perfbench workloads (rates from their seed-1 streams) and on
Fig 15's 35-query workload. A refactor of the optimizer's phases must
leave every figure here unchanged.

Lists of keys are pinned by the first 16 hex digits of the SHA-256 of
their ``repr``; a score by ``float.hex``."""
import hashlib

import pytest

from repro.core.ccspan import sharable_patterns
from repro.core.cost import CostModel, uniform_rates
from repro.core.expand import expand_graph
from repro.core.graph import build_graph
from repro.core.gwmin import guaranteed_weight
from repro.core.optimizer import greedy_optimizer, sharon_optimizer
from repro.core.planner import find_optimal_plan_decomposed
from repro.core.reduce import reduce_graph
from repro.workloads import (
    clustered_example_workload,
    rates_from_stream,
    shared_core_workload,
    stream_for_workload,
)


def digest(keys) -> str:
    return hashlib.sha256(repr(keys).encode()).hexdigest()[:16]


def _seeded(wl, n_events):
    """Cost model on the rates of the workload's seed-1 stream."""
    ev = stream_for_workload(wl, n_events=n_events, n_keys=4, duration=3600, seed=1)
    return wl, CostModel(wl, rates_from_stream(ev, within=600, duration=3600))


CASES = {
    "shared_core": lambda: _seeded(
        shared_core_workload(
            n_queries=20, pattern_len=10, family_size=4, core_frac=0.8,
            within=600, slide=300,
        ),
        60_000,
    ),
    "traffic_clusters": lambda: _seeded(
        clustered_example_workload(n_clusters=5, within=600, slide=300), 30_000
    ),
    "fig15_35": lambda: (
        lambda wl: (wl, CostModel(wl, uniform_rates(wl.event_types, 2.0)))
    )(clustered_example_workload(n_clusters=5)),
}

# (options, digest of their keys in vertex order, edges)
EXPANDED = {
    "shared_core": (380, "ea93994c06071ebc", 13558),
    "traffic_clusters": (21, "9c13d8ae4205f6d9", 11),
    "fig15_35": (25, "9a81b447d27babff", 40),
}
# (plan size, digest of its sorted keys, score.hex()); every optimizer
# below finds the same plan on these workloads.
PLAN = {
    "shared_core": (5, "078f19e3a1d447ec", "0x1.7c277c71c71c8p+20"),
    "traffic_clusters": (13, "0b297a25fc0f62a0", "0x1.75279c71c71c8p+17"),
    "fig15_35": (10, "da49b3c22f32bf98", "0x1.e000000000000p+5"),
}


@pytest.fixture(scope="module", params=sorted(CASES))
def case(request):
    return (request.param, *CASES[request.param]())


def _pinned(res):
    keys = sorted(c.key() for c in res.plan)
    return len(keys), digest(keys), res.score.hex()


def test_expanded_graph(case):
    name, wl, cost = case
    gx = expand_graph(build_graph(wl, sharable_patterns(wl), cost=cost), cost)
    keys = [v.key() for v in gx.vertices]
    assert (len(keys), digest(keys), gx.n_edges) == EXPANDED[name]


# The as-printed finder (decompose=False) is left out on shared_core: its
# levels grow with the product of the five components' valid spaces.
@pytest.mark.parametrize(
    "name,decompose",
    [(n, True) for n in sorted(CASES)]
    + [("traffic_clusters", False), ("fig15_35", False)],
)
def test_sharon_plan_and_score(name, decompose):
    wl, cost = CASES[name]()
    assert _pinned(sharon_optimizer(wl, cost, decompose=decompose)) == PLAN[name]


def test_global_bound_keeps_the_plan(case):
    # perfbench's traced run rebuilds the decomposed optimizer with the
    # printed, global Alg 2 and checks its plan and score against
    # sharon_optimizer's, which bounds each component by itself.
    name, wl, cost = case
    gx = expand_graph(build_graph(wl, sharable_patterns(wl), cost=cost), cost)
    red = reduce_graph(gx, guaranteed_weight(gx))
    plan, score = find_optimal_plan_decomposed(red.graph, red.conflict_free)
    score += sum(gx.weight(v) for v in red.conflict_free)
    keys = sorted(c.key() for c in plan)
    assert (len(keys), digest(keys), score.hex()) == PLAN[name]


def test_greedy_plan(case):
    name, wl, cost = case
    assert _pinned(greedy_optimizer(wl, cost)) == PLAN[name]


def test_shared_core_plan_is_each_family_core():
    wl, cost = CASES["shared_core"]()
    res = sharon_optimizer(wl, cost)
    assert sorted(c.key() for c in res.plan) == [
        (tuple(f"F{f:03d}C{j:02d}" for j in range(8)), tuple(range(4 * f, 4 * f + 4)))
        for f in range(5)
    ]
