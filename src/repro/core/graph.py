"""Sharing conflicts and the Sharon graph (paper Section 4, Alg 1).

Vertices are sharing candidates weighted by benefit; undirected edges
are sharing conflicts (Definition 6): two candidates conflict when their
patterns occupy overlapping position ranges in some query both of them
would be shared by. Under the paper's assumption that an event type
occurs at most once per pattern, positional overlap coincides with the
paper's suffix-equals-prefix formulation, and it extends naturally to
repeated types (Section 7.3).

The graph is an adjacency-list structure; ``weights`` may be injected
explicitly (used by tests that pin the paper's Figure 4 weights) or
computed from a :class:`~repro.core.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel
from .model import Pattern, SharingCandidate, Workload, occurrence_ranges


def conflicts_in_query(query_pattern: Pattern, pa: Pattern, pb: Pattern) -> bool:
    """True if pa and pb overlap positionally somewhere in this query."""
    ra = occurrence_ranges(query_pattern, pa)
    rb = occurrence_ranges(query_pattern, pb)
    return any(sa < eb and sb < ea for (sa, ea) in ra for (sb, eb) in rb)


def conflict_causing_queries(
    workload: Workload, a: SharingCandidate, b: SharingCandidate
) -> frozenset[int]:
    """Definition 6's causes: the queries of Q_A ∩ Q_B where the patterns
    overlap. Two candidates for the *same* pattern (options from Section
    7.1) overlap in every query they share — a pattern overlaps itself."""
    common = a.qids & b.qids
    if not common or a.p == b.p:
        return common
    return frozenset(
        q for q in common if conflicts_in_query(workload[q].pattern, a.p, b.p)
    )


def in_conflict(
    workload: Workload, a: SharingCandidate, b: SharingCandidate
) -> bool:
    """Definition 6: some query in Q_A ∩ Q_B where the patterns overlap."""
    return bool(conflict_causing_queries(workload, a, b))


@dataclass
class SharonGraph:
    """Adjacency-list Sharon graph (Definition 10).

    ``index`` maps each vertex key to its candidate in vertex order;
    ``weights`` and ``adj`` are keyed the same way.
    """

    workload: Workload
    index: dict[tuple, SharingCandidate] = field(default_factory=dict, repr=False)
    weights: dict[tuple, float] = field(default_factory=dict)
    adj: dict[tuple, set[tuple]] = field(default_factory=dict)

    @classmethod
    def from_edges(
        cls,
        workload: Workload,
        vertices: list[SharingCandidate],
        weights: list[float],
        earlier: list[list[int]],
    ) -> "SharonGraph":
        """The graph on ``vertices``, in this order and with these
        ``weights``, where vertex ``a`` is adjacent to the vertices at the
        positions ``earlier[a]`` (each below ``a``). Adjacency sets receive
        their members in the order of ``a``, then of ``earlier[a]``."""
        keys = [v.key() for v in vertices]
        adj: dict[tuple, set[tuple]] = {k: set() for k in keys}
        for ka, bs in zip(keys, earlier):
            for b in bs:
                adj[ka].add(keys[b])
                adj[keys[b]].add(ka)
        return cls(workload, dict(zip(keys, vertices)), dict(zip(keys, weights)), adj)

    @property
    def vertices(self) -> tuple[SharingCandidate, ...]:
        return tuple(self.index.values())

    def add_vertex(self, cand: SharingCandidate, weight: float) -> None:
        k = cand.key()
        if k in self.adj:
            raise ValueError(f"duplicate vertex {k}")
        # Edges to existing vertices (Alg 1, Lines 6-8).
        self.adj[k] = set()
        for uk, u in self.index.items():
            if in_conflict(self.workload, cand, u):
                self.adj[k].add(uk)
                self.adj[uk].add(k)
        self.index[k] = cand
        self.weights[k] = weight

    def remove_vertex(self, cand: SharingCandidate) -> None:
        k = cand.key()
        for u in self.adj.pop(k):
            self.adj[u].discard(k)
        self.weights.pop(k)
        del self.index[k]

    def weight(self, cand: SharingCandidate) -> float:
        return self.weights[cand.key()]

    def degree(self, cand: SharingCandidate) -> int:
        return len(self.adj[cand.key()])

    def neighbors(self, cand: SharingCandidate) -> list[SharingCandidate]:
        """v's neighbours in vertex order. (A set of string tuples iterates
        in an order that follows the process's string hash seed.)"""
        adj = self.adj[cand.key()]
        return [u for k, u in self.index.items() if k in adj]

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def copy(self) -> "SharonGraph":
        return SharonGraph(
            self.workload,
            dict(self.index),
            dict(self.weights),
            {k: set(s) for k, s in self.adj.items()},
        )


def build_graph(
    workload: Workload,
    sharables: dict[Pattern, frozenset[int]],
    cost: CostModel | None = None,
    weights: dict[Pattern, float] | None = None,
) -> SharonGraph:
    """Algorithm 1: Sharon graph construction.

    ``weights`` overrides the cost model per pattern (tests pin Figure 4's
    weights this way); otherwise BValue from ``cost`` is used and
    non-beneficial candidates are skipped (Line 3).
    """
    if cost is None and weights is None:
        raise ValueError("need a cost model or explicit weights")
    g = SharonGraph(workload)
    # Sorted iteration keeps construction deterministic across runs.
    for p in sorted(sharables):
        qids = sharables[p]
        if len(qids) < 2:
            continue
        cand = SharingCandidate(p, qids)
        w = weights.get(p) if weights is not None else cost.bvalue(cand)
        if w is None or w <= 0:
            continue
        g.add_vertex(cand, float(w))
    return g
