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
from .model import Pattern, SharingCandidate, Workload


def occurrence_ranges(query_pattern: Pattern, p: Pattern) -> list[tuple[int, int]]:
    """All [start, end) index ranges where ``p`` occurs in ``query_pattern``."""
    n, l = len(query_pattern), len(p)
    return [
        (i, i + l) for i in range(n - l + 1) if query_pattern[i : i + l] == p
    ]


def conflicts_in_query(query_pattern: Pattern, pa: Pattern, pb: Pattern) -> bool:
    """True if pa and pb overlap positionally somewhere in this query."""
    ra = occurrence_ranges(query_pattern, pa)
    rb = occurrence_ranges(query_pattern, pb)
    return any(sa < eb and sb < ea for (sa, ea) in ra for (sb, eb) in rb)


def in_conflict(
    workload: Workload, a: SharingCandidate, b: SharingCandidate
) -> bool:
    """Definition 6: a query in Q_A ∩ Q_B where the patterns overlap.

    Two candidates for the *same* pattern (options from Section 7.1)
    conflict exactly when they share a query — the pattern trivially
    overlaps itself.
    """
    common = a.qids & b.qids
    if not common:
        return False
    if a.p == b.p:
        return True
    return any(
        conflicts_in_query(workload[qid].pattern, a.p, b.p) for qid in common
    )


@dataclass
class SharonGraph:
    """Adjacency-list Sharon graph (Definition 10).

    Vertices live in a key -> candidate index kept in insertion order;
    ``vertices`` reads it as a tuple and assigning a sequence rebuilds it.
    """

    workload: Workload
    weights: dict[tuple, float] = field(default_factory=dict)
    adj: dict[tuple, set[tuple]] = field(default_factory=dict)
    _by_key: dict[tuple, SharingCandidate] = field(default_factory=dict, repr=False)

    @property
    def vertices(self) -> tuple[SharingCandidate, ...]:
        return tuple(self._by_key.values())

    @vertices.setter
    def vertices(self, cands) -> None:
        self._by_key = {c.key(): c for c in cands}

    def add_vertex(self, cand: SharingCandidate, weight: float) -> None:
        k = cand.key()
        if k in self.adj:
            raise ValueError(f"duplicate vertex {k}")
        # Edges to existing vertices (Alg 1, Lines 6-8).
        self.adj[k] = set()
        for uk, u in self._by_key.items():
            if in_conflict(self.workload, cand, u):
                self.adj[k].add(uk)
                self.adj[uk].add(k)
        self._by_key[k] = cand
        self.weights[k] = weight

    def remove_vertex(self, cand: SharingCandidate) -> None:
        k = cand.key()
        for u in self.adj.pop(k):
            self.adj[u].discard(k)
        self.weights.pop(k)
        del self._by_key[k]

    def weight(self, cand: SharingCandidate) -> float:
        return self.weights[cand.key()]

    def degree(self, cand: SharingCandidate) -> int:
        return len(self.adj[cand.key()])

    def neighbors(self, cand: SharingCandidate) -> list[SharingCandidate]:
        return [self._by_key[k] for k in self.adj[cand.key()]]

    def has_edge(self, a: SharingCandidate, b: SharingCandidate) -> bool:
        return b.key() in self.adj[a.key()]

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def copy(self) -> "SharonGraph":
        g = SharonGraph(self.workload)
        g._by_key = dict(self._by_key)
        g.weights = dict(self.weights)
        g.adj = {k: set(s) for k, s in self.adj.items()}
        return g

    def find_vertex(self, p: Pattern) -> SharingCandidate:
        """Vertex whose pattern is ``p`` (unique pre-expansion); for tests."""
        matches = [v for v in self.vertices if v.p == p]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} vertices with pattern {p}")
        return matches[0]


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
