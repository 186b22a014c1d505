"""Regenerate every evaluation table in one go (EXPERIMENTS.md source).

Run: ``python jobs/run_all.py`` (fig13 starts a local SparkSession).
"""
from _common import emit, get_spark


def main() -> None:
    from repro.experiments import (
        fig13_experiment,
        fig14_sweep,
        fig15_experiment,
        fig16_experiment,
    )

    spark = get_spark("sharon-repro-all")
    emit("Fig 13: two-step vs online", fig13_experiment(spark))
    spark.stop()
    emit("Fig 14(a,e): vary events per window", fig14_sweep("events_per_window"))
    emit("Fig 14(b,f,d): vary number of queries", fig14_sweep("n_queries"))
    emit("Fig 14(c,g,h): vary pattern length", fig14_sweep("pattern_len"))
    emit("Fig 15: optimizer comparison", fig15_experiment())
    emit("Fig 16: plan quality", fig16_experiment())


if __name__ == "__main__":
    main()
