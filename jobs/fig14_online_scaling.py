"""Figure 14 reproduction: A-Seq vs Sharon executor — latency,
throughput and memory while varying events per window (a, e), number of
queries (b, f) and pattern length (c, g); memory columns cover (d, h).

The sweeps time the driver-local kernel twin of the Spark executor
(oracle-tested identical); see EXPERIMENTS.md for methodology.
Run: ``python jobs/fig14_online_scaling.py``.
"""
from _common import emit


def main() -> None:
    from repro.experiments import fig14_sweep

    emit("Fig 14(a,e): vary events per window", fig14_sweep("events_per_window"))
    emit("Fig 14(b,f,d): vary number of queries", fig14_sweep("n_queries"))
    emit("Fig 14(c,g,h): vary pattern length", fig14_sweep("pattern_len"))


if __name__ == "__main__":
    main()
