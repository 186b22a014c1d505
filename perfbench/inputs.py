"""The benchmark's workloads and everything derived from a seed.

A workload names a query set from ``repro.workloads``, the size of the
event stream generated for it and the offered rate of the open-loop
streaming replay. The program under test receives only the generated
stream and the rates derived from a generated stream.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import pandas as pd

from repro.core.cost import CostModel
from repro.core.model import Workload
from repro.workloads import (
    clustered_example_workload,
    rates_from_stream,
    shared_core_workload,
    stream_for_workload,
)

DURATION = 3600  # event-time seconds covered by every stream
N_KEYS = 4
# The optimizer plans on the rates of one fixed stream, whatever the
# seed. Streams draw every type at the same expected rate, so the rates
# of two seeds differ only by sampling noise; but that noise moves
# marginal sharing candidates across the benefit threshold and changes
# the optimizer's graph (17 to 23 candidates on traffic_clusters over
# ten seeds, and its time from 1.3 to 2.2 ms). With fixed rates, every seed
# optimizes the same graph into the same plan, optimize_s varies only
# with the box and plan_score only with the optimizer.
RATES_SEED = 1
# The stream is replayed in 100 event-time micro-batches of about 36 s
# (``time_chunks``), so one open-loop pass yields 100 latency samples
# (10 beyond p90).
N_BATCHES = 100
# A closed-loop sample replays 10 batches (6 minutes of event time) from
# the middle of the stream, where every event falls in all its windows,
# through a fresh executor.
SLICE = slice(N_BATCHES // 2, N_BATCHES // 2 + 10)


@dataclass(frozen=True)
class Spec:
    name: str
    n_events: int
    # Open-loop offered rate in events/s of wall time: about 40% of the
    # closed-loop stream_eps (12.7k and 13.6k events/s on a 4-core x86
    # VM), so the streaming driver stays below full load through the
    # box's slow spells.
    offered_eps: float
    # Optimizer calls per timed sample: calls far below 0.1 s repeat so
    # that one sample lasts about 0.2 s. Fixed, so every run and every
    # later change times the same number of calls.
    optimize_reps: int
    make_workload: Callable[[], Workload]


WORKLOADS: dict[str, Spec] = {
    spec.name: spec
    for spec in (
        # Fig 14 point, 20 queries of length 10 sharing long suffixes:
        # optimizer expansion and shared reverse builds dominate.
        Spec(
            name="shared_core",
            # Families of 4 rather than Fig 14's 5 keep expansion the
            # optimizer's largest phase at ~0.2 s a call instead of ~0.9 s,
            # so a run holds enough optimizer samples for a steady median.
            n_events=60_000,
            offered_eps=5_000.0,
            optimize_reps=1,
            make_workload=lambda: shared_core_workload(
                n_queries=20,
                pattern_len=10,
                family_size=4,
                core_frac=0.8,
                within=600,
                slide=300,
            ),
        ),
        # q1-q7 five times, 35 short queries: prefix sharing (forward
        # builds) over the conflict-rich Fig 4 graph.
        Spec(
            name="traffic_clusters",
            n_events=30_000,
            offered_eps=5_500.0,
            optimize_reps=100,
            make_workload=lambda: clustered_example_workload(
                n_clusters=5, within=600, slide=300
            ),
        ),
    )
}


@dataclass
class Inputs:
    """One workload's queries, generated stream and cost model."""

    workload: Workload
    events: pd.DataFrame
    cost: CostModel

    @property
    def within(self) -> int:
        return self.workload[0].within

    @property
    def slide(self) -> int:
        return self.workload[0].slide


def make_inputs(spec: Spec, seed: int) -> Inputs:
    """Generate the stream from ``seed``; derive the optimizer's rates
    from the stream of ``RATES_SEED``."""
    workload = spec.make_workload()

    def stream(seed: int) -> pd.DataFrame:
        return stream_for_workload(
            workload,
            n_events=spec.n_events,
            n_keys=N_KEYS,
            duration=DURATION,
            seed=seed,
        )

    events = stream(seed)
    sample = events if seed == RATES_SEED else stream(RATES_SEED)
    rates = rates_from_stream(sample, within=workload[0].within, duration=DURATION)
    return Inputs(workload, events, CostModel(workload, rates))
