"""End-to-end engine correctness on Spark: every executor (A-Seq kernel,
Sharon shared kernel, Catalyst chain, Flink-like and SPASS-like
two-step) must agree with the DuckDB n-way self-join oracle on the same
window-exploded stream — per (query, window, key)."""
import numpy as np
import pandas as pd
import pytest
from pyspark.errors import ArithmeticException, PythonException
from pyspark.sql.types import LongType

from repro.core.cost import CostModel
from repro.core.model import Workload
from repro.core.optimizer import greedy_optimizer, sharon_optimizer
from repro.oracle import assert_equivalent
from repro.oracle_sql import seq_count_sql, workload_count_sql
from repro.runtime.aseq import run_aseq
from repro.runtime.aseq_sql import run_aseq_sql, run_query_sql
from repro.runtime.sharon import per_window_counts, run_plan, run_plan_pandas
from repro.runtime.twostep import flink_like, spass_like
from repro.runtime.windows import explode_windows_pandas
from repro.synth_data import event_stream, stream_to_spark
from repro.workloads import (
    purchase_workload,
    rates_from_stream,
    traffic_workload,
)

WITHIN, SLIDE = 120, 60


@pytest.fixture(scope="module")
def traffic():
    wl = traffic_workload(within=WITHIN, slide=SLIDE)
    pdf = event_stream(
        n_events=300,
        types=sorted(wl.event_types),
        n_keys=4,
        duration=600,
        seed=11,
    )
    return wl, pdf


@pytest.fixture(scope="module")
def traffic_spark(spark, traffic):
    _, pdf = traffic
    return stream_to_spark(spark, pdf)


@pytest.fixture(scope="module")
def traffic_exploded(traffic):
    _, pdf = traffic
    return explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)


def _wl_sql(wl: Workload) -> str:
    return workload_count_sql({q.qid: q.pattern for q in wl})


class TestASeqEngine:
    def test_against_oracle(self, traffic, traffic_spark, traffic_exploded):
        wl, _ = traffic
        got = run_aseq(traffic_spark, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_single_query_catalyst_chain(
        self, traffic, traffic_spark, traffic_exploded
    ):
        wl, _ = traffic
        q = wl[0]
        got = run_query_sql(traffic_spark, q).select("wid", "key", "cnt")
        assert_equivalent(got, seq_count_sql(q.pattern), ev=traffic_exploded)

    def test_catalyst_workload(self, traffic, traffic_spark, traffic_exploded):
        wl, _ = traffic
        got = run_aseq_sql(traffic_spark, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)


class TestSharonEngine:
    @pytest.fixture(scope="class")
    def optimal_plan(self, traffic):
        wl, pdf = traffic
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        return sharon_optimizer(wl, cost).plan

    def test_plan_is_nonempty(self, optimal_plan):
        assert len(optimal_plan) >= 1

    def test_shared_against_oracle(
        self, traffic, traffic_spark, traffic_exploded, optimal_plan
    ):
        wl, _ = traffic
        got = run_plan(traffic_spark, wl, optimal_plan).select(
            "qid", "wid", "key", "cnt"
        )
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_greedy_plan_against_oracle(
        self, traffic, traffic_spark, traffic_exploded
    ):
        wl, pdf = traffic
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        plan = greedy_optimizer(wl, cost).plan
        got = run_plan(traffic_spark, wl, plan).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_pandas_twin_matches_spark(
        self, spark, traffic, traffic_spark, optimal_plan
    ):
        wl, pdf = traffic
        local_res, stats = run_plan_pandas(pdf, wl, optimal_plan)
        local_res = local_res[["wid", "key", "qid", "cnt"]].sort_values(
            ["qid", "wid", "key"]
        ).reset_index(drop=True)
        assert stats["c_builds"] > 0
        # Tasks sort their rows by time: a shuffled stream counts the same.
        shuffled = stream_to_spark(spark, pdf.sample(frac=1, random_state=0))
        for events in (traffic_spark, shuffled):
            spark_res = (
                run_plan(events, wl, optimal_plan)
                .toPandas()
                .sort_values(["qid", "wid", "key"])
                .reset_index(drop=True)
            )
            pd.testing.assert_frame_equal(
                spark_res[["wid", "key", "qid", "cnt"]], local_res, check_dtype=False
            )

    def test_empty_stream_gives_no_rows(self, traffic, traffic_spark, optimal_plan):
        wl, _ = traffic
        assert run_plan(traffic_spark.limit(0), wl, optimal_plan).count() == 0

    def test_tasks_without_rows_yield_nothing(
        self, spark, traffic, traffic_spark, optimal_plan
    ):
        # Without AQE's coalescing, most key-shuffle partitions hold no
        # key: their tasks get no batches and must yield no frame.
        wl, pdf = traffic
        aqe = spark.conf.get("spark.sql.adaptive.enabled")
        spark.conf.set("spark.sql.adaptive.enabled", "false")
        try:
            got = run_plan(traffic_spark, wl, optimal_plan).toPandas()
        finally:
            spark.conf.set("spark.sql.adaptive.enabled", aqe)
        want, _ = run_plan_pandas(pdf, wl, optimal_plan)
        cols = ["qid", "wid", "key"]
        pd.testing.assert_frame_equal(
            got.sort_values(cols).reset_index(drop=True),
            want[got.columns].sort_values(cols).reset_index(drop=True),
        )

    def test_per_window_counts_sums_keys(self, traffic, traffic_spark, optimal_plan):
        wl, _ = traffic
        counts = run_plan(traffic_spark, wl, optimal_plan)
        per_w = per_window_counts(counts).toPandas()
        raw = counts.toPandas()
        expect = (
            raw.groupby(["qid", "wid"])["cnt"].sum().reset_index()
        )
        merged = per_w.merge(expect, on=["qid", "wid"], suffixes=("", "_e"))
        assert len(merged) == len(per_w) == len(expect)
        assert (merged["cnt"] == merged["cnt_e"]).all()


class TestTwoStepEngines:
    def test_flink_like_against_oracle(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=120,
            types=sorted(wl.event_types),
            n_keys=3,
            duration=300,
            seed=3,
        )
        sdf = stream_to_spark(spark, pdf)
        exploded = explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)
        got = flink_like(sdf, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=exploded)

    def test_spass_like_against_oracle(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=150,
            types=sorted(wl.event_types),
            n_keys=3,
            duration=300,
            seed=5,
        )
        sdf = stream_to_spark(spark, pdf)
        cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
        plan = sharon_optimizer(wl, cost).plan
        exploded = explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)
        got = spass_like(sdf, wl, plan).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=exploded)

    def test_spass_like_empty_plan_matches_flink(self, spark):
        wl = purchase_workload(within=WITHIN, slide=SLIDE)
        pdf = event_stream(
            n_events=100,
            types=sorted(wl.event_types),
            n_keys=2,
            duration=240,
            seed=8,
        )
        sdf = stream_to_spark(spark, pdf)
        a = (
            spass_like(sdf, wl, [])
            .toPandas()
            .sort_values(["qid", "wid", "key"])
            .reset_index(drop=True)
        )
        b = (
            flink_like(sdf, wl)
            .toPandas()
            .sort_values(["qid", "wid", "key"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(a, b, check_dtype=False)


LONG = tuple(f"T{j}" for j in range(10))


def long_window(spark, per_type):
    """One key, one window: ``per_type`` events of each type of LONG in
    pattern order, so LONG has per_type^10 sequences."""
    n = per_type * len(LONG)
    wl = Workload.from_patterns([LONG], within=n, slide=n)
    pdf = pd.DataFrame(
        {
            "time": np.arange(n, dtype=np.int64),
            "key": np.zeros(n, dtype=np.int64),
            "type": np.repeat(LONG, per_type).astype(object),
        }
    )
    return wl, stream_to_spark(spark, pdf)


class TestExactLongCounts:
    """Counts beyond float64's exact range come back exact as ``long``;
    counts beyond ``long`` raise."""

    def test_run_plan_beyond_float64_is_exact(self, spark):
        wl, sdf = long_window(spark, 41)
        assert [r.cnt for r in run_plan(sdf, wl, None).collect()] == [41**10]

    def test_run_plan_beyond_int64_raises(self, spark):
        wl, sdf = long_window(spark, 90)
        with pytest.raises(PythonException, match="OverflowError"):
            run_plan(sdf, wl, None).collect()

    def test_aseq_sql_beyond_float64_is_exact(self, spark):
        wl, sdf = long_window(spark, 41)
        got = [r.cnt for r in run_aseq_sql(sdf, wl).collect()]
        assert got == [13_422_659_310_152_401] == [41**10]

    def test_aseq_sql_beyond_int64_raises(self, spark):
        wl, sdf = long_window(spark, 90)
        with pytest.raises(ArithmeticException, match="ARITHMETIC_OVERFLOW"):
            run_aseq_sql(sdf, wl).collect()


ENGINES = {
    "aseq": lambda sdf, wl, plan: run_aseq(sdf, wl),
    "sharon": run_plan,
    "per_window": lambda sdf, wl, plan: per_window_counts(run_plan(sdf, wl, plan)),
    "aseq_sql": lambda sdf, wl, plan: run_aseq_sql(sdf, wl),
    "query_sql": lambda sdf, wl, plan: run_query_sql(sdf, wl[0]),
    "flink_like": lambda sdf, wl, plan: flink_like(sdf, wl),
    "spass_like": spass_like,
}


@pytest.mark.parametrize("engine", list(ENGINES))
def test_every_engine_counts_in_long(engine, traffic, traffic_spark):
    wl, pdf = traffic
    cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
    plan = greedy_optimizer(wl, cost).plan
    out = ENGINES[engine](traffic_spark, wl, plan)
    assert out.schema["cnt"].dataType == LongType()
