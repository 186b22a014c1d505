"""Sharing conflicts and the Sharon graph (paper Section 4, Alg 1).

Vertices are sharing candidates weighted by benefit; undirected edges
are sharing conflicts (Definition 6): two candidates conflict when their
patterns occupy overlapping position ranges in some query both of them
would be shared by. Under the paper's assumption that an event type
occurs at most once per pattern, positional overlap coincides with the
paper's suffix-equals-prefix formulation, and it extends naturally to
repeated types (Section 7.3).

A vertex is numbered by its position in construction order; weights,
occurrences and adjacency sets are indexed by that number.
``weights`` may be injected explicitly (used by tests that pin the
paper's Figure 4 weights) or computed from a
:class:`~repro.core.cost.CostModel`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .cost import CostModel
from .model import Pattern, SharingCandidate, Workload, occurrence_ranges

# Query id -> the positions of that query a pattern covers, as a bitmask:
# bit i is set when some occurrence's [start, end) range holds i.
Occurrences = dict[int, int]


def occurrences(workload: Workload, cand: SharingCandidate) -> Occurrences:
    """Where ``cand``'s pattern occurs in each of its queries."""
    out: Occurrences = {}
    for q in cand.qids:
        covered = 0
        for start, end in occurrence_ranges(workload[q].pattern, cand.p):
            covered |= (1 << end) - (1 << start)
        out[q] = covered
    return out


def conflict_causing_queries(
    a: SharingCandidate, occ_a: Occurrences, b: SharingCandidate, occ_b: Occurrences
) -> frozenset[int]:
    """Definition 6's causes: the queries of Q_A ∩ Q_B where the patterns
    overlap, read off their occurrences (two sets of ranges overlap iff
    the positions they cover meet). Two candidates for the *same*
    pattern (options from Section 7.1) overlap in every query they share
    — a pattern overlaps itself."""
    common = a.qids & b.qids
    if not common or a.p == b.p:
        return common
    return frozenset(q for q in common if occ_a[q] & occ_b[q])


@dataclass
class SharonGraph:
    """Adjacency-set Sharon graph (Definition 10) on numbered vertices.

    Vertex ``v`` is ``cands[v]``, with weight ``weights[v]`` and its
    pattern's occurrences ``occ[v]``. ``adj`` maps each vertex still
    in the graph, in vertex order, to the set of its neighbours. Removing
    a vertex drops it from ``adj`` only, so the numbers of the others
    stay; copies share the per-vertex lists.
    """

    workload: Workload
    cands: list[SharingCandidate] = field(default_factory=list, repr=False)
    weights: list[float] = field(default_factory=list)
    occ: list[Occurrences] = field(default_factory=list, repr=False)
    adj: dict[int, set[int]] = field(default_factory=dict)

    @property
    def vertices(self) -> tuple[SharingCandidate, ...]:
        return tuple(self.cands[v] for v in self.adj)

    def add_vertex(self, cand: SharingCandidate, weight: float) -> int:
        """Alg 1, Lines 6-8: number ``cand``, join it to every vertex it
        conflicts with, and return its number."""
        occ = occurrences(self.workload, cand)
        v = len(self.cands)
        nbrs: set[int] = set()
        for u in self.adj:
            c = self.cands[u]
            if c.p == cand.p and c.qids == cand.qids:
                raise ValueError(f"duplicate vertex {cand.key()}")
            if conflict_causing_queries(cand, occ, c, self.occ[u]):
                nbrs.add(u)
        for u in nbrs:
            self.adj[u].add(v)
        self.cands.append(cand)
        self.weights.append(weight)
        self.occ.append(occ)
        self.adj[v] = nbrs
        return v

    def remove_vertex(self, v: int) -> None:
        for u in self.adj.pop(v):
            self.adj[u].discard(v)

    def weight(self, v: int) -> float:
        return self.weights[v]

    @property
    def n_edges(self) -> int:
        return sum(len(s) for s in self.adj.values()) // 2

    def copy(self) -> "SharonGraph":
        return SharonGraph(
            self.workload,
            self.cands,
            self.weights,
            self.occ,
            {v: set(s) for v, s in self.adj.items()},
        )

    def components(self) -> list[list[int]]:
        """The vertices of each connected component (by conflict edges),
        each component listed from its lowest-numbered vertex, in the
        order of those vertices."""
        seen: set[int] = set()
        comps: list[list[int]] = []
        for root in self.adj:
            if root in seen:
                continue
            seen.add(root)
            comp = [root]
            for v in comp:  # grows while it is walked: a breadth-first search
                new = self.adj[v] - seen
                seen |= new
                comp += new
            comps.append(comp)
        return comps


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
