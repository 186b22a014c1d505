"""Sharon data and query model (paper Section 2.1, Definitions 1-4).

Patterns are tuples of event-type names. A query is a pattern plus the
clauses of Definition 2; all queries in the paper's evaluation use
``RETURN COUNT(*) WHERE [key] WITHIN w SLIDE s``, which is what the
executors implement. A ``Workload`` is an ordered list of queries whose
positions serve as query identifiers (the paper stores "the position of
a query q in the list Q_p" for linear-time conflict checks).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Sequence

Pattern = tuple[str, ...]


def pattern(*types: str) -> Pattern:
    """Build a pattern from event-type names: ``pattern('A', 'B')``."""
    return tuple(types)


@dataclass(frozen=True)
class Query:
    """An event sequence aggregation query (Definition 2).

    ``qid`` is the query's position in its workload. ``within`` and
    ``slide`` are in the stream's time unit (seconds in the paper).
    ``group_by_key`` mirrors the ``WHERE [vehicle]`` equivalence
    predicate: all events of one sequence share the same ``key``.
    """

    qid: int
    pattern: Pattern
    within: int = 600
    slide: int = 60
    group_by_key: bool = True

    def __post_init__(self) -> None:
        if len(self.pattern) < 1:
            raise ValueError("pattern must have length >= 1")
        if self.within <= 0 or self.slide <= 0:
            raise ValueError("within and slide must be positive")

    @property
    def length(self) -> int:
        return len(self.pattern)

    def find(self, p: Pattern) -> int:
        """Leftmost start index of sub-pattern ``p`` in this query, -1 if absent."""
        n, l = len(self.pattern), len(p)
        for i in range(n - l + 1):
            if self.pattern[i : i + l] == p:
                return i
        return -1

    def contains(self, p: Pattern) -> bool:
        return self.find(p) >= 0

    def prefix_suffix(self, p: Pattern) -> tuple[Pattern, Pattern]:
        """Prefix and suffix of sharable pattern ``p`` in this query (Def 4)."""
        i = self.find(p)
        if i < 0:
            raise ValueError(f"{p} does not occur in {self.pattern}")
        return self.pattern[:i], self.pattern[i + len(p) :]


@dataclass
class Workload:
    """An ordered multi-query workload; query ids are list positions."""

    queries: list[Query] = field(default_factory=list)

    def __post_init__(self) -> None:
        # Assumption 2: every query shares one window. The executors explode
        # the stream once with the first query's WITHIN/SLIDE, so a query
        # with another window would silently get wrong counts.
        windows = {(q.within, q.slide) for q in self.queries}
        if len(windows) > 1:
            raise ValueError(
                f"queries mix (WITHIN, SLIDE) windows {sorted(windows)}; "
                "all queries of a workload must share one window"
            )

    @classmethod
    def from_patterns(
        cls, patterns: Sequence[Sequence[str]], *, within: int = 600, slide: int = 60
    ) -> "Workload":
        return cls(
            [
                Query(qid=i, pattern=tuple(p), within=within, slide=slide)
                for i, p in enumerate(patterns)
            ]
        )

    def __iter__(self) -> Iterator[Query]:
        return iter(self.queries)

    def __len__(self) -> int:
        return len(self.queries)

    def __getitem__(self, qid: int) -> Query:
        return self.queries[qid]

    @property
    def event_types(self) -> set[str]:
        return {t for q in self.queries for t in q.pattern}


@dataclass(frozen=True)
class SharingCandidate:
    """A sharable pattern p plus the queries Q_p that would share it (Def 3)."""

    p: Pattern
    qids: frozenset[int]

    def __post_init__(self) -> None:
        if len(self.p) < 2:
            raise ValueError("sharable patterns have length > 1 (Def 3)")
        if len(self.qids) < 2:
            raise ValueError("sharing candidates need |Q_p| > 1 (Def 3)")
        # Memoized: the optimizer looks candidates up by key constantly.
        object.__setattr__(self, "_key", (self.p, tuple(sorted(self.qids))))

    def key(self) -> tuple:
        return self._key


SharingPlan = frozenset[SharingCandidate]


def plan_score(plan: Sequence[SharingCandidate], bvalue) -> float:
    """Score of a sharing plan: sum of candidate benefits (Definition 8)."""
    return sum(bvalue(c) for c in plan)
