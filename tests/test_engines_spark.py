"""End-to-end engine correctness on Spark: every executor (A-Seq and
Sharon on the shared kernel, Flink-like and SPASS-like two-step) must
agree with the DuckDB n-way self-join oracle on the same
window-exploded stream — per (query, window, key)."""
import importlib
import sys
import zipfile
import zipimport

import numpy as np
import pandas as pd
import pytest
from pyspark.errors import PythonException
from pyspark.sql.types import LongType

from repro.core.cost import CostModel
from repro.core.model import Workload
from repro.core.optimizer import greedy_optimizer, sharon_optimizer
from repro.oracle import assert_equivalent
from repro.oracle_sql import seq_count_sql, workload_count_sql
from repro.runtime.sharon import drop_zip_finders, run_plan, run_plan_pandas
from repro.runtime.streaming import MicroBatchExecutor, time_chunks
from repro.runtime.twostep import flink_like, spass_like
from repro.runtime.windows import explode_windows_pandas
from repro.synth_data import event_stream
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
    return spark.createDataFrame(pdf)


@pytest.fixture(scope="module")
def traffic_exploded(traffic):
    _, pdf = traffic
    return explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)


def _wl_sql(wl: Workload) -> str:
    return workload_count_sql({q.qid: q.pattern for q in wl})


class TestASeqEngine:
    def test_against_oracle(self, traffic, traffic_spark, traffic_exploded):
        wl, _ = traffic
        got = run_plan(traffic_spark, wl, None).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=traffic_exploded)

    def test_single_query_against_seq_oracle(
        self, traffic, traffic_spark, traffic_exploded
    ):
        wl, _ = traffic
        q = wl[0]
        one = Workload.from_patterns([q.pattern], within=WITHIN, slide=SLIDE)
        got = run_plan(traffic_spark, one, None).select("wid", "key", "cnt")
        assert_equivalent(got, seq_count_sql(q.pattern), ev=traffic_exploded)

    def test_pandas_twin_against_oracle(self, spark, traffic, traffic_exploded):
        wl, pdf = traffic
        counts, _ = run_plan_pandas(pdf, wl, None)
        got = spark.createDataFrame(counts[["qid", "wid", "key", "cnt"]])
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
        shuffled = spark.createDataFrame(pdf.sample(frac=1, random_state=0))
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

    def test_one_row_per_query_window_key(
        self, traffic, traffic_spark, optimal_plan
    ):
        # One (wid, key) partition lives in one task: no (qid, wid, key)
        # may come back twice, and zero counts are not emitted.
        wl, _ = traffic
        got = run_plan(traffic_spark, wl, optimal_plan).toPandas()
        assert len(got) > 0
        assert not got.duplicated(["qid", "wid", "key"]).any()
        assert (got["cnt"] > 0).all()

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


def _zip_finders() -> list[str]:
    return [
        path
        for path, finder in sys.path_importer_cache.items()
        if isinstance(finder, zipimport.zipimporter)
    ]


class TestZipFinders:
    """``run_plan``'s tasks drop the worker's cached zip finders, so that
    PySpark's per-task ``invalidate_caches()`` has no archive to re-read;
    imports from the archives must still work after the drop."""

    def test_worker_imports_from_zip_after_drop(self, spark):
        def probe(batches):
            import pyspark

            for _ in batches:
                pass
            drop_zip_finders()
            finders = sys.path_importer_cache.values()
            left = sum(isinstance(f, zipimport.zipimporter) for f in finders)
            fresh = "pyspark.ml.linalg" not in sys.modules
            mod = importlib.import_module("pyspark.ml.linalg")
            yield pd.DataFrame(
                {
                    "left": [left],
                    "fresh": [fresh],
                    "loader": [type(mod.__loader__).__name__],
                    "pyspark_loader": [type(pyspark.__loader__).__name__],
                }
            )

        got = (
            spark.range(1, numPartitions=1)
            .mapInPandas(
                probe, "left long, fresh boolean, loader string, pyspark_loader string"
            )
            .toPandas()
        )
        assert got["left"].tolist() == [0]
        assert got["fresh"].tolist() == [True]
        # Imported the way pyspark itself was: from pyspark.zip when the
        # worker runs pyspark from the archive.
        assert got["loader"].tolist() == got["pyspark_loader"].tolist()

    @pytest.mark.parametrize("engine", ["aseq", "sharon"])
    def test_repeated_run_plan_equals_twin(
        self, engine, traffic, traffic_spark
    ):
        # The second job reuses a worker whose zip finders the first
        # job's task dropped.
        wl, pdf = traffic
        plan = None
        if engine == "sharon":
            plan = sharon_optimizer(
                wl, CostModel(wl, rates_from_stream(pdf, within=WITHIN))
            ).plan
        cols = ["qid", "wid", "key"]
        want, _ = run_plan_pandas(pdf, wl, plan)
        want = want.sort_values(cols).reset_index(drop=True)
        for _ in range(2):
            got = run_plan(traffic_spark, wl, plan).toPandas()
            pd.testing.assert_frame_equal(
                got.sort_values(cols).reset_index(drop=True), want[got.columns]
            )

    def test_second_submodule_imports_after_drop(self, tmp_path):
        archive = tmp_path / "zipped.zip"
        with zipfile.ZipFile(archive, "w") as z:
            z.writestr("zipped_pkg/__init__.py", "")
            z.writestr("zipped_pkg/first.py", "X = 1\n")
            z.writestr("zipped_pkg/second.py", "Y = 2\n")
        sys.path.insert(0, str(archive))
        try:
            assert importlib.import_module("zipped_pkg.first").X == 1
            assert any(p.startswith(str(archive)) for p in _zip_finders())
            drop_zip_finders()
            assert _zip_finders() == []
            second = importlib.import_module("zipped_pkg.second")
            assert second.Y == 2
            assert isinstance(second.__loader__, zipimport.zipimporter)
        finally:
            sys.path.remove(str(archive))
            for name in ("zipped_pkg", "zipped_pkg.first", "zipped_pkg.second"):
                sys.modules.pop(name, None)
            for path in _zip_finders():
                if path.startswith(str(archive)):
                    del sys.path_importer_cache[path]


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
        sdf = spark.createDataFrame(pdf)
        exploded = explode_windows_pandas(pdf, within=WITHIN, slide=SLIDE)
        got = flink_like(sdf, wl).select("qid", "wid", "key", "cnt")
        assert_equivalent(got, _wl_sql(wl), ev=exploded)

    def test_flink_like_gap_stream_against_oracle(self, spark):
        # SLIDE > WITHIN: events between two windows belong to neither.
        wl = purchase_workload(within=30, slide=100)
        pdf = event_stream(
            n_events=120,
            types=sorted(wl.event_types),
            n_keys=3,
            duration=400,
            seed=3,
        )
        exploded = explode_windows_pandas(pdf, within=30, slide=100)
        assert len(exploded) < len(pdf)
        got = flink_like(spark.createDataFrame(pdf), wl)
        got = got.select("qid", "wid", "key", "cnt")
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
        sdf = spark.createDataFrame(pdf)
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
        sdf = spark.createDataFrame(pdf)
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


def long_window_pandas(per_type):
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
    return wl, pdf


def long_window(spark, per_type):
    wl, pdf = long_window_pandas(per_type)
    return wl, spark.createDataFrame(pdf)


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

    def test_run_plan_pandas_beyond_float64_is_exact(self):
        wl, pdf = long_window_pandas(41)
        counts, _ = run_plan_pandas(pdf, wl, None)
        assert counts["cnt"].tolist() == [13_422_659_310_152_401] == [41**10]

    def test_run_plan_pandas_beyond_int64_raises(self):
        wl, pdf = long_window_pandas(90)
        with pytest.raises(OverflowError):
            run_plan_pandas(pdf, wl, None)


ENGINES = {
    "aseq": lambda sdf, wl, plan: run_plan(sdf, wl, None),
    "sharon": run_plan,
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


def _streamed(pdf, wl):
    ex = MicroBatchExecutor(wl)
    for chunk in time_chunks(pdf, 4):
        ex.process_batch(chunk)
    return ex.results()


LOCAL_ENGINES = {
    "aseq_pandas": lambda pdf, wl, plan: run_plan_pandas(pdf, wl, None)[0],
    "sharon_pandas": lambda pdf, wl, plan: run_plan_pandas(pdf, wl, plan)[0],
    "streaming": lambda pdf, wl, plan: _streamed(pdf, wl),
}


@pytest.mark.parametrize("engine", list(LOCAL_ENGINES))
def test_every_local_engine_counts_in_int64(engine, traffic):
    wl, pdf = traffic
    cost = CostModel(wl, rates_from_stream(pdf, within=WITHIN))
    plan = greedy_optimizer(wl, cost).plan
    out = LOCAL_ENGINES[engine](pdf, wl, plan)
    assert len(out) > 0
    assert out["cnt"].dtype == np.int64
