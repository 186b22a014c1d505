"""Synthetic event streams for the Sharon reproduction (the schema the
paper evaluates on).

One flat stream of events (time: int seconds, key: int producer id,
type: str event type), deterministic in ``seed`` so the DuckDB oracle
sees identical input. It substitutes the paper's data sets (DESIGN.md
Section 3): every figure draws its stream through
``workloads.stream_for_workload``, with ``ramp=True`` for Fig 13's
Linear-Road-like rising rate.
"""
import numpy as np
import pandas as pd


def event_stream(
    *,
    n_events: int,
    types: list[str],
    n_keys: int = 8,
    duration: int = 3600,
    seed: int = 0,
    ramp: bool = False,
) -> pd.DataFrame:
    """Generic event stream sorted by time, types drawn uniformly.

    ``ramp=True`` concentrates events toward the end of ``duration``
    (Linear Road's gradually increasing rate).
    """
    g = np.random.default_rng(seed)
    type_idx = g.integers(0, len(types), n_events)
    if ramp:
        # Quadratic CDF => linearly increasing event rate over time.
        times = (np.sqrt(g.random(n_events)) * duration).astype("int64")
    else:
        times = g.integers(0, duration, n_events)
    pdf = pd.DataFrame(
        {
            "time": np.sort(times),
            "key": g.integers(0, n_keys, n_events),
            "type": np.asarray(types, dtype=object)[type_idx],
        }
    )
    return pdf.reset_index(drop=True)
