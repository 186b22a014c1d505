"""Query workloads: the paper's running examples plus parametric
generators for the evaluation sweeps (Section 8.1: vary number of
queries, pattern length, events per window).
"""
from __future__ import annotations

import pandas as pd

from .core.cost import Rates
from .core.model import Pattern, Workload
from .synth_data import event_stream

# Figure 1: traffic monitoring workload q1-q7 (10-min window, 1-min slide).
TRAFFIC_PATTERNS: list[tuple[str, ...]] = [
    ("OakSt", "MainSt", "StateSt"),
    ("OakSt", "MainSt", "WestSt"),
    ("LindenSt", "ParkAve", "OakSt", "MainSt"),
    ("ParkAve", "OakSt", "MainSt", "WestSt"),
    ("MainSt", "StateSt"),
    ("EastPark", "ElmSt", "ParkAve"),
    ("ElmSt", "ParkAve", "GreenHill"),
]

# Figure 2: purchase monitoring workload q8-q11 (20-min window, 1-min slide).
PURCHASE_PATTERNS: list[tuple[str, ...]] = [
    ("Laptop", "Case", "Adapter", "Mouse"),
    ("Laptop", "Case", "KeyBoardProtector"),
    ("Monitor", "Laptop", "Case", "Adapter"),
    ("Laptop", "Case", "Phone", "ScreenProtector"),
]

# Figure 4: the Sharon-graph weights the paper assigns to candidates p1-p7.
FIG4_WEIGHTS: dict[Pattern, float] = {
    ("OakSt", "MainSt"): 25.0,
    ("ParkAve", "OakSt"): 9.0,
    ("ParkAve", "OakSt", "MainSt"): 12.0,
    ("MainSt", "WestSt"): 15.0,
    ("OakSt", "MainSt", "WestSt"): 20.0,
    ("MainSt", "StateSt"): 8.0,
    ("ElmSt", "ParkAve"): 18.0,
}


def traffic_workload(*, within: int = 600, slide: int = 60) -> Workload:
    return Workload.from_patterns(TRAFFIC_PATTERNS, within=within, slide=slide)


def purchase_workload(*, within: int = 1200, slide: int = 60) -> Workload:
    return Workload.from_patterns(PURCHASE_PATTERNS, within=within, slide=slide)


def shared_core_workload(
    *,
    n_queries: int,
    pattern_len: int = 10,
    family_size: int = 5,
    core_frac: float = 0.6,
    within: int = 600,
    slide: int = 300,
) -> Workload:
    """Families of queries sharing a long core pattern (Fig 14 workloads).

    Each family of ``family_size`` queries shares a *suffix-aligned* core
    of ``round(pattern_len * core_frac)`` types; each query owns a
    private prefix. Suffix alignment matters under the paper's cost
    model: with no suffix the combination term (Eq 5) has two factors
    instead of three, so sharing a long core is beneficial at any stream
    rate — the regime Figure 14's executor speedups are measured in.
    Type names are disjoint across families, so sharing is plentiful and
    conflict-light.
    """
    if pattern_len < 2:
        raise ValueError("pattern_len must be >= 2")
    core_len = max(2, min(pattern_len, round(pattern_len * core_frac)))
    patterns: list[tuple[str, ...]] = []
    fam = -1
    for qi in range(n_queries):
        pos = qi % family_size
        if pos == 0:
            fam += 1
        core = tuple(f"F{fam:03d}C{j:02d}" for j in range(core_len))
        pre = tuple(
            f"F{fam:03d}Q{pos}P{j}" for j in range(pattern_len - core_len)
        )
        patterns.append(pre + core)
    return Workload.from_patterns(patterns, within=within, slide=slide)


def gwmin_trap_workload(
    *, n_blocks: int, within: int = 600, slide: int = 300
) -> Workload:
    """Workloads where GWMIN is provably sub-optimal (Fig 16's regime).

    Each block is a star: a 2-type *hub* suffix shared by all of the
    block's 8 queries, plus 4 per-pair shared suffixes (2 pair types +
    the hub) that all conflict with the hub. Under uniform rates the
    hub's weight/(degree+1) ratio wins, so GWMIN shares the hub and
    excludes every pair candidate — while the optimal plan takes the
    pair candidates whose summed benefit is higher (the Example 12
    structure, scaled). A greedily planned executor therefore re-runs 2
    chain levels privately per query that the optimal plan computes once
    per pair. Blocks use disjoint type namespaces.
    """
    pats: list[tuple[str, ...]] = []
    for b in range(n_blocks):
        blk = f"B{b:03d}"
        for i in range(4):
            shared = (f"{blk}S{i}x0", f"{blk}S{i}x1", f"{blk}H1", f"{blk}H2")
            pats.append((f"{blk}P{2 * i}",) + shared)
            pats.append((f"{blk}P{2 * i + 1}",) + shared)
    return Workload.from_patterns(pats, within=within, slide=slide)


def clustered_example_workload(
    *, n_clusters: int, within: int = 600, slide: int = 300
) -> Workload:
    """``n_clusters`` copies of the q1-q7 running example with disjoint
    type namespaces (7 queries per cluster). In every cluster the greedy
    GWMIN plan scores below the optimal plan (Example 12's 43 vs 50
    structure), making this the workload family for the optimizer-quality
    experiments (Figs 15-16)."""
    patterns = [
        tuple(f"K{c:03d}{t}" for t in pat)
        for c in range(n_clusters)
        for pat in TRAFFIC_PATTERNS
    ]
    return Workload.from_patterns(patterns, within=within, slide=slide)


def rates_from_stream(events: pd.DataFrame, *, within: int, duration: int | None = None) -> Rates:
    """Per-type expected events per window, from an event-stream sample.

    Rate(E) = count(E) * within / duration (Section 3's rates are per
    window). ``duration`` defaults to the observed time span.
    """
    if duration is None:
        duration = max(1, int(events["time"].max()) + 1)
    counts = events["type"].value_counts()
    return {t: float(c) * within / duration for t, c in counts.items()}


def stream_for_workload(
    workload: Workload,
    *,
    n_events: int,
    n_keys: int = 8,
    duration: int = 3600,
    seed: int = 0,
    ramp: bool = False,
) -> pd.DataFrame:
    """Uniform-rate stream over exactly the workload's event types."""
    return event_stream(
        n_events=n_events,
        types=sorted(workload.event_types),
        n_keys=n_keys,
        duration=duration,
        seed=seed,
        ramp=ramp,
    )
