"""Sharing benefit model (paper Section 3, Equations 1-8).

Rates are expected event counts per window per type, taken from stream
statistics. All formulas follow the paper; conventions for empty
prefixes/suffixes (which the paper leaves implicit) are documented in
DESIGN.md Section 5:

- ``Rate(empty) = 0`` so a missing prefix/suffix contributes no Comp term.
- ``Comb`` multiplies only the factors that exist (prefix start rate if a
  prefix exists, shared-pattern start rate, suffix start rate if a suffix
  exists); if p is the whole pattern of q_i, Comp = Comb = 0.
- A type occurring k times in a pattern contributes k times to Rate(P)
  (Section 7.3): each matched event updates k prefix counts.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .model import Pattern, Query, SharingCandidate, Workload

Rates = dict[str, float]

# Rate of a type the statistics do not list.
_DEFAULT_RATE = 1.0


def uniform_rates(types, rate: float = 10.0) -> Rates:
    """Identical per-type rate — the default used when no stream stats exist."""
    return {t: float(rate) for t in types}


@dataclass
class CostModel:
    """Evaluates Eqs 1-8 for one workload under per-type rates."""

    workload: Workload
    rates: Rates
    _bvalue_cache: dict = field(default_factory=dict, repr=False)
    # Per-query Eq 2 and Eq 6 terms, memoized so BValues of the many
    # query-subset options of one pattern re-sum them instead of re-deriving.
    _non_shared_memo: dict = field(default_factory=dict, repr=False)
    _shared_memo: dict = field(default_factory=dict, repr=False)

    def rate(self, event_type: str) -> float:
        return float(self.rates.get(event_type, _DEFAULT_RATE))

    def pattern_rate(self, p: Pattern) -> float:
        """Eq 1: Rate(P) = sum of the rates of all types in P (with multiplicity)."""
        return sum(self.rate(t) for t in p)

    # -- Non-Shared method (Section 3.2) --------------------------------
    def non_shared_query(self, q: Query) -> float:
        """Eq 2: Rate(E1) x Rate(P) — counts kept per START event."""
        return self.rate(q.pattern[0]) * self.pattern_rate(q.pattern)

    def non_shared(self, cand: SharingCandidate) -> float:
        """Eq 3: sum of Eq 2 over the candidate's queries."""
        return sum(self._non_shared_qid(i) for i in cand.qids)

    def _non_shared_qid(self, i: int) -> float:
        memo = self._non_shared_memo
        if i not in memo:
            memo[i] = self.non_shared_query(self.workload[i])
        return memo[i]

    # -- Shared method (Section 3.3) ------------------------------------
    def comp(self, p: Pattern, q: Query) -> float:
        """Eq 4: per-query cost of computing the prefix and suffix chains."""
        prefix, suffix = q.prefix_suffix(p)
        c = 0.0
        if prefix:
            c += self.rate(prefix[0]) * self.pattern_rate(prefix)
        if suffix:
            c += self.rate(suffix[0]) * self.pattern_rate(suffix)
        return c

    def comb(self, p: Pattern, q: Query) -> float:
        """Eq 5: cost of combining prefix x p x suffix counts."""
        prefix, suffix = q.prefix_suffix(p)
        if not prefix and not suffix:
            return 0.0
        c = self.rate(p[0])
        if prefix:
            c *= self.rate(q.pattern[0])
        if suffix:
            c *= self.rate(suffix[0])
        return c

    def shared_query(self, p: Pattern, q: Query) -> float:
        """Eq 6: Shared(p, q_i) = Comp + Comb."""
        return self.comp(p, q) + self.comb(p, q)

    def shared(self, cand: SharingCandidate) -> float:
        """Eq 7: shared-pattern chain once + per-query Comp/Comb."""
        once = self.rate(cand.p[0]) * self.pattern_rate(cand.p)
        return once + sum(self._shared_qid(cand.p, i) for i in cand.qids)

    def _shared_qid(self, p: Pattern, i: int) -> float:
        memo = self._shared_memo
        if (p, i) not in memo:
            memo[p, i] = self.shared_query(p, self.workload[i])
        return memo[p, i]

    # -- Benefit (Section 3.4) ------------------------------------------
    def bvalue(self, cand: SharingCandidate) -> float:
        """Eq 8: BValue = NonShared - Shared; > 0 means beneficial."""
        k = cand.key()
        if k not in self._bvalue_cache:
            self._bvalue_cache[k] = self.non_shared(cand) - self.shared(cand)
        return self._bvalue_cache[k]
