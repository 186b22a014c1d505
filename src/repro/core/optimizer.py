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

# Modeled object sizes (bytes) for the memory metric: a vertex stores its
# pattern, query list and weight; an edge two refs; a plan its candidate
# keys. Constants are nominal — comparisons across optimizers are what
# matter, as in the paper.
_VERTEX_BYTES = 64
_EDGE_BYTES = 16
_PLAN_ENTRY_BYTES = 8


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
    return len(g.vertices) * _VERTEX_BYTES + g.n_edges * 2 * _EDGE_BYTES


def _construct(workload: Workload, cost: CostModel) -> tuple[SharonGraph, float]:
    t0 = time.perf_counter()
    g = build_graph(workload, sharable_patterns(workload), cost=cost)
    return g, time.perf_counter() - t0


def greedy_optimizer(workload: Workload, cost: CostModel) -> OptimizerResult:
    """GO: graph construction + GWMIN plan finder."""
    g, t_build = _construct(workload, cost)
    t0 = time.perf_counter()
    plan = gwmin(g)
    t_find = time.perf_counter() - t0
    return OptimizerResult(
        name="greedy",
        plan=plan,
        score=sum(g.weight(v) for v in plan),
        phase_latency={"graph": t_build, "gwmin": t_find},
        phase_memory={
            "graph": _graph_bytes(g),
            "gwmin": _graph_bytes(g) + len(plan) * _PLAN_ENTRY_BYTES,
        },
    )


def exhaustive_optimizer(
    workload: Workload,
    cost: CostModel,
    max_vertices: int = 22,
    max_options: int = 128,
) -> OptimizerResult:
    """EO: construction + expansion + unpruned 2^|V| subset enumeration.

    ``max_vertices`` guards the 2^|V| blow-up: beyond it the enumeration
    provably cannot finish in reasonable time (the paper's EO "fails to
    terminate for more than 20 queries"); a ValueError marks DNF.
    """
    g, t_build = _construct(workload, cost)
    t0 = time.perf_counter()
    gx = expand_graph(g, cost, max_options)
    t_expand = time.perf_counter() - t0
    if len(gx.vertices) > max_vertices:
        raise ValueError(
            f"exhaustive search over {len(gx.vertices)} candidates "
            f"(2^{len(gx.vertices)} plans) marked DNF"
        )
    stats = PlanSearchStats()
    t0 = time.perf_counter()
    plan, score = exhaustive_optimal_plan(gx, stats)
    t_search = time.perf_counter() - t0
    return OptimizerResult(
        name="exhaustive",
        plan=plan,
        score=score,
        phase_latency={"graph": t_build, "expand": t_expand, "search": t_search},
        phase_memory={
            "graph": _graph_bytes(g),
            "expand": _graph_bytes(gx),
            "search": _graph_bytes(gx)
            + stats.peak_level_plans * len(gx.vertices) * _PLAN_ENTRY_BYTES,
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

    By default the finder runs per connected component (same optimum,
    far smaller traversal — see planner docs). ``decompose=False`` runs
    the paper's as-printed finder, whose plan levels grow with the
    product of the components' valid spaces."""
    from .reduce import reduce_graph  # local import avoids cycle at module load

    g, t_build = _construct(workload, cost)
    t0 = time.perf_counter()
    gx = expand_graph(g, cost, max_options)
    t_expand = time.perf_counter() - t0
    t0 = time.perf_counter()
    red = reduce_graph(gx, guaranteed_weight(gx))
    t_reduce = time.perf_counter() - t0
    stats = PlanSearchStats()
    finder = find_optimal_plan_decomposed if decompose else find_optimal_plan
    t0 = time.perf_counter()
    plan, score = finder(red.graph, red.conflict_free, stats)
    t_find = time.perf_counter() - t0
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
            * max(1, len(red.graph.vertices))
            * _PLAN_ENTRY_BYTES,
        },
    )


def reoptimize(workload: Workload, cost: CostModel) -> OptimizerResult:
    """Dynamic-workload hook (Section 7.4): rerun the static optimizer on
    fresh statistics; callers swap plans between micro-batches."""
    return sharon_optimizer(workload, cost)
