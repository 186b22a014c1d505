"""Synthetic event streams for the Sharon reproduction (the schema the
paper evaluates on).

One flat stream of events (time: int seconds, key: int producer id,
type: str event type), deterministic in ``seed`` so the DuckDB oracle
sees identical input. These substitute the paper's data sets (DESIGN.md
Section 3): ``traffic_stream`` for the NYC Taxi workload (TX),
``linear_road_stream`` for the Linear Road benchmark (LR, ramping
rate), ``ecommerce_stream`` for their synthetic e-commerce generator
(EC: 50 items, 20 customers).
"""
import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


def event_stream(
    *,
    n_events: int,
    types: list[str],
    n_keys: int = 8,
    duration: int = 3600,
    seed: int = 0,
    type_alpha: float = 0.0,
    ramp: bool = False,
) -> pd.DataFrame:
    """Generic event stream sorted by time.

    ``type_alpha > 0`` draws types zipf-skewed (rank-``alpha``);
    ``ramp=True`` concentrates events toward the end of ``duration``
    (Linear Road's gradually increasing rate).
    """
    g = _rng(seed)
    n_types = len(types)
    if type_alpha > 0:
        w = 1.0 / np.arange(1, n_types + 1) ** type_alpha
        w /= w.sum()
        type_idx = g.choice(n_types, size=n_events, p=w)
    else:
        type_idx = g.integers(0, n_types, n_events)
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


def traffic_stream(
    *, n_events: int, types: list[str], n_keys: int = 20, duration: int = 3600, seed: int = 0
) -> pd.DataFrame:
    """TX analogue: vehicle position reports; ``types`` are street names."""
    return event_stream(
        n_events=n_events, types=types, n_keys=n_keys, duration=duration, seed=seed
    )


def linear_road_stream(
    *, n_events: int, types: list[str], n_keys: int = 20, duration: int = 10800, seed: int = 0
) -> pd.DataFrame:
    """LR analogue: 3-hour position-report stream with ramping rate."""
    return event_stream(
        n_events=n_events,
        types=types,
        n_keys=n_keys,
        duration=duration,
        seed=seed,
        ramp=True,
    )


def ecommerce_stream(
    *, n_events: int, n_items: int = 50, n_customers: int = 20, duration: int = 10800, seed: int = 0
) -> pd.DataFrame:
    """EC analogue: item-purchase events, item id as event type."""
    return event_stream(
        n_events=n_events,
        types=[f"Item{i:02d}" for i in range(n_items)],
        n_keys=n_customers,
        duration=duration,
        seed=seed,
    )


def stream_to_spark(spark: SparkSession, pdf: pd.DataFrame) -> DataFrame:
    """Event stream as a Spark DataFrame (time long, key long, type string)."""
    return spark.createDataFrame(pdf)
