"""Shared helpers for the spark-submit job entrypoints."""
from __future__ import annotations

import os
import sys

# Allow running straight from a checkout without `pip install -e .`.
sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))


def get_spark(app: str):
    """The SparkSession of the jobs and of the test suite.

    Master and driver memory come from spark-submit or
    ``PYSPARK_SUBMIT_ARGS``, read at JVM launch. The settings here are
    honoured after launch: 64 shuffle partitions, Arrow for pandas
    hand-off, and no broadcast joins, so the two-step engines' joins
    exercise the shuffle path at these small scales.
    """
    from pyspark.sql import SparkSession

    return (
        SparkSession.builder.appName(app)
        .config("spark.sql.shuffle.partitions", "64")
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )


def emit(title: str, rows: list[dict]) -> None:
    from repro.experiments import format_table

    print(f"\n== {title} ==")
    print(format_table(rows))
