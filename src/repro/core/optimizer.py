"""End-to-end optimizer pipelines benchmarked in paper Section 8.3.

Three optimizers over one workload + rate statistics:

- **Greedy (GO)**: Sharon graph construction -> GWMIN. Polynomial.
- **Exhaustive (EO)**: construction -> expansion (Section 7.1) ->
  enumerate all candidate subsets. Exponential, no pruning.
- **Sharon (SO)**: construction -> expansion -> reduction (Alg 2) ->
  sharing plan finder (Alg 4). Optimal, with all three pruning
  principles (non-beneficial, conflict-ridden, invalid-branch).

Each phase records latency (seconds) and a memory figure (bytes,
modeled as graph/plan object counts — the paper's "peak memory for
storing the Sharon graph and the sharing plans"), which is what Fig 15
plots.
"""
from __future__ import annotations

import time
from dataclasses import dataclass, field

from .ccspan import sharable_patterns
from .cost import CostModel
from .expand import expand_graph
from .graph import SharonGraph, build_graph
from .gwmin import guaranteed_weight, gwmin
from .model import SharingCandidate, Workload
from .planner import (
    PlanSearchStats,
    exhaustive_optimal_plan,
    find_optimal_plan,
    find_optimal_plan_decomposed,
)
from .reduce import reduce_components, reduce_graph

# Modeled object sizes (bytes) for the memory metric: a vertex stores its
# pattern, query list and weight; an edge two refs; a plan its candidate
# keys. Constants are nominal — comparisons across optimizers are what
# matter, as in the paper.
_VERTEX_BYTES = 64
_EDGE_BYTES = 16
_PLAN_ENTRY_BYTES = 8

# EO's guard against the 2^|V| blow-up: beyond this many expanded
# candidates the enumeration provably cannot finish in reasonable time
# (the paper's EO "fails to terminate for more than 20 queries").
_EO_MAX_VERTICES = 22


@dataclass
class OptimizerResult:
    name: str
    plan: list[SharingCandidate]
    score: float
    phase_latency: dict[str, float] = field(default_factory=dict)
    phase_memory: dict[str, int] = field(default_factory=dict)

    @property
    def latency(self) -> float:
        return sum(self.phase_latency.values())

    @property
    def peak_memory(self) -> int:
        return max(self.phase_memory.values()) if self.phase_memory else 0


def _graph_bytes(g: SharonGraph) -> int:
    return len(g.adj) * _VERTEX_BYTES + g.n_edges * 2 * _EDGE_BYTES


def _timed(fn, *args):
    """(fn's result, its wall time in seconds): one phase's latency."""
    t0 = time.perf_counter()
    out = fn(*args)
    return out, time.perf_counter() - t0


def _construct(workload: Workload, cost: CostModel) -> SharonGraph:
    return build_graph(workload, sharable_patterns(workload), cost=cost)


def greedy_optimizer(workload: Workload, cost: CostModel) -> OptimizerResult:
    """GO: graph construction + GWMIN plan finder."""
    g, t_build = _timed(_construct, workload, cost)
    ids, t_find = _timed(gwmin, g)
    plan = [g.cands[v] for v in ids]
    return OptimizerResult(
        name="greedy",
        plan=plan,
        score=sum(g.weight(v) for v in ids),
        phase_latency={"graph": t_build, "gwmin": t_find},
        phase_memory={
            "graph": _graph_bytes(g),
            "gwmin": _graph_bytes(g) + len(plan) * _PLAN_ENTRY_BYTES,
        },
    )


def exhaustive_optimizer(workload: Workload, cost: CostModel) -> OptimizerResult:
    """EO: construction + expansion + unpruned 2^|V| subset enumeration.

    More than ``_EO_MAX_VERTICES`` expanded candidates raise a
    ValueError, which marks DNF.
    """
    g, t_build = _timed(_construct, workload, cost)
    gx, t_expand = _timed(expand_graph, g, cost)
    if len(gx.adj) > _EO_MAX_VERTICES:
        raise ValueError(
            f"exhaustive search over {len(gx.adj)} candidates "
            f"(2^{len(gx.adj)} plans) marked DNF"
        )
    stats = PlanSearchStats()
    (plan, score), t_search = _timed(exhaustive_optimal_plan, gx, stats)
    return OptimizerResult(
        name="exhaustive",
        plan=plan,
        score=score,
        phase_latency={"graph": t_build, "expand": t_expand, "search": t_search},
        phase_memory={
            "graph": _graph_bytes(g),
            "expand": _graph_bytes(gx),
            "search": _graph_bytes(gx)
            + stats.peak_level_plans * len(gx.adj) * _PLAN_ENTRY_BYTES,
        },
    )


def sharon_optimizer(
    workload: Workload,
    cost: CostModel,
    *,
    decompose: bool = True,
    max_options: int = 128,
) -> OptimizerResult:
    """SO: construction + expansion + reduction + plan finder (optimal).

    By default reduction and finder run per connected component (same
    optimum, far smaller traversal — see the reduce and planner docs).
    ``decompose=False`` runs the paper's as-printed Alg 2, with one bound
    for the whole graph, and its as-printed finder, whose plan levels
    grow with the product of the components' valid spaces. For a dynamic
    workload (Section 7.4), re-run this on fresh statistics."""
    g, t_build = _timed(_construct, workload, cost)
    gx, t_expand = _timed(expand_graph, g, cost, max_options)
    if decompose:
        red, t_reduce = _timed(reduce_components, gx)
        finder = find_optimal_plan_decomposed
    else:
        red, t_reduce = _timed(lambda: reduce_graph(gx, guaranteed_weight(gx)))
        finder = find_optimal_plan
    stats = PlanSearchStats()
    (plan, score), t_find = _timed(finder, red.graph, red.conflict_free, stats)
    score += sum(gx.weight(v) for v in red.conflict_free)
    return OptimizerResult(
        name="sharon",
        plan=plan,
        score=score,
        phase_latency={
            "graph": t_build,
            "expand": t_expand,
            "reduce": t_reduce,
            "finder": t_find,
        },
        phase_memory={
            "graph": _graph_bytes(g),
            "expand": _graph_bytes(gx),
            "reduce": _graph_bytes(red.graph),
            "finder": _graph_bytes(red.graph)
            + stats.peak_level_plans
            * max(1, len(red.graph.adj))
            * _PLAN_ENTRY_BYTES,
        },
    )
