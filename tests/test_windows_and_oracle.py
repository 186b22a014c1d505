"""Window assignment (Spark vs pandas twins), the oracle SQL builder,
and Section 7.3 (repeated event types in a pattern) end to end."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.model import Query, Workload
from repro.oracle import assert_equivalent
from repro.oracle_sql import seq_count_sql, workload_count_sql
from repro.runtime.windows import (
    explode_windows,
    explode_windows_pandas,
    n_windows,
    partition_rows,
    window_rows,
    window_span,
)
from repro.synth_data import event_stream


class TestWindowMath:
    @pytest.mark.parametrize(
        "t,within,slide,expected",
        [
            (0, 100, 50, [0]),
            (49, 100, 50, [0]),
            (50, 100, 50, [0, 1]),
            (149, 100, 50, [1, 2]),
            (150, 100, 50, [2, 3]),
            (0, 100, 100, [0]),  # tumbling
            (99, 100, 100, [0]),
            (100, 100, 100, [1]),
        ],
    )
    def test_single_event_windows(self, t, within, slide, expected):
        pdf = pd.DataFrame({"time": [t], "key": [0], "type": ["A"]})
        out = explode_windows_pandas(pdf, within=within, slide=slide)
        assert sorted(out["wid"].tolist()) == expected

    def test_replication_factor(self):
        pdf = event_stream(n_events=500, types=["A"], duration=1000, seed=0)
        out = explode_windows_pandas(pdf, within=100, slide=50)
        # Interior events belong to exactly within/slide = 2 windows.
        assert len(out) <= 2 * len(pdf)
        interior = pdf[pdf["time"] >= 50]
        assert len(out) == 2 * len(interior) + (len(pdf) - len(interior))

    def test_n_windows(self):
        assert n_windows(1000, slide=50) == 20
        assert n_windows(0, slide=50) == 0
        assert n_windows(1, slide=50) == 1

    # (30, 100) leaves gaps between windows, where Spark's sequence(lo,
    # hi) would count down; 7 is no multiple of 3.
    @pytest.mark.parametrize("within,slide", [(120, 60), (30, 100), (7, 3)])
    def test_spark_matches_pandas(self, spark, within, slide):
        pdf = event_stream(n_events=300, types=["A", "B"], duration=500, seed=2)
        got = (
            explode_windows(spark.createDataFrame(pdf), within=within, slide=slide)
            .toPandas()
            .sort_values(["wid", "key", "time", "type"])
            .reset_index(drop=True)
        )
        want = (
            explode_windows_pandas(pdf, within=within, slide=slide)
            .sort_values(["wid", "key", "time", "type"])
            .reset_index(drop=True)
        )
        pd.testing.assert_frame_equal(
            got[["time", "key", "type", "wid"]],
            want[["time", "key", "type", "wid"]],
            check_dtype=False,
        )


def explode_per_event(events, *, within, slide):
    """Reference explosion: one ``arange`` of window ids per event. The
    empty seed array lets it return an empty frame for an empty stream."""
    t = events["time"].to_numpy()
    lo = np.maximum(0, (t - within) // slide + 1)
    hi = t // slide
    reps = (hi - lo + 1).astype(int)
    out = events.loc[events.index.repeat(reps)].reset_index(drop=True)
    wid = np.concatenate(
        [np.empty(0, dtype=np.int64)]
        + [np.arange(a, b + 1) for a, b in zip(lo, hi)]
    )
    out["wid"] = wid.astype("int64")
    return out.sort_values(["wid", "key", "time"], kind="stable").reset_index(
        drop=True
    )


def random_stream(seed, n, horizon, n_keys=3):
    """Unsorted events with many tied timestamps, starting at time 0 (so
    early events fall in fewer windows), under a shuffled unique index."""
    rng = np.random.default_rng(seed)
    pdf = pd.DataFrame(
        {
            "time": rng.integers(0, horizon, n).astype(np.int64),
            "key": rng.integers(0, n_keys, n).astype(np.int64),
            "type": rng.choice(list("ABCD"), n),
        }
    )
    return pdf.sample(frac=1.0, random_state=seed)


class TestVectorizedExplosion:
    """explode_windows_pandas against the per-event loop it replaced:
    same rows, row order (ties in stream order), columns and dtypes."""

    @pytest.mark.parametrize(
        "within,slide",
        [(100, 50), (120, 60), (100, 100), (100, 30), (30, 100), (7, 3)],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_random_streams(self, within, slide, seed):
        pdf = random_stream(seed, n=300, horizon=400)
        pd.testing.assert_frame_equal(
            explode_windows_pandas(pdf, within=within, slide=slide),
            explode_per_event(pdf, within=within, slide=slide),
        )

    def test_events_in_no_window(self):
        # slide > within leaves gaps: t = 30..99 lies in no window.
        pdf = pd.DataFrame(
            {"time": [5, 40, 99, 100, 135], "key": [0] * 5, "type": list("ABCDA")}
        )
        out = explode_windows_pandas(pdf, within=30, slide=100)
        assert out["time"].tolist() == [5, 100]
        assert out["wid"].tolist() == [0, 1]
        pd.testing.assert_frame_equal(
            out, explode_per_event(pdf, within=30, slide=100)
        )

    @pytest.mark.parametrize(
        "within,slide", [(120, 60), (600, 60), (30, 100), (7, 3)]
    )
    @pytest.mark.parametrize(
        "first,stop", [(0, 3), (2, 9), (5, 6), (4, None), (50, 60)]
    )
    def test_window_range(self, within, slide, first, stop):
        # A range keeps exactly the rows of its windows, in the same
        # order as the full relation.
        t = np.sort(random_stream(3, n=300, horizon=400)["time"].to_numpy())
        src, wid = window_rows(t, within=within, slide=slide)
        keep = (wid >= first) & (wid < (np.inf if stop is None else stop))
        got = window_rows(t, within=within, slide=slide, first=first, stop=stop)
        assert got[0].tolist() == src[keep].tolist()
        assert got[1].tolist() == wid[keep].tolist()

    @pytest.mark.parametrize(
        "within,slide", [(120, 60), (600, 60), (30, 100), (7, 3)]
    )
    @pytest.mark.parametrize(
        "first,stop", [(0, 3), (2, 9), (5, 6), (4, None), (50, 60)]
    )
    def test_window_span_bounds_the_rows(self, within, slide, first, stop):
        # Each event's rows in a range are its windows lo..hi, none where
        # lo > hi: the span MicroBatchExecutor tests before a pass.
        t = np.sort(random_stream(3, n=300, horizon=400)["time"].to_numpy())
        lo, hi = window_span(t, within=within, slide=slide, first=first, stop=stop)
        src, wid = window_rows(t, within=within, slide=slide, first=first, stop=stop)
        for i in range(len(t)):
            assert wid[src == i].tolist() == list(range(lo[i], hi[i] + 1))

    @pytest.mark.parametrize("t", [-1, -49, -50, -51, -1000])
    def test_negative_times_rejected(self, t):
        # Windows start at time 0: an event before it is an input error,
        # neither dropped nor given a window.
        pdf = pd.DataFrame({"time": [t, 10], "key": [0, 0], "type": ["A", "B"]})
        wl = Workload.from_patterns([("A", "B")], within=100, slide=50)
        from repro.runtime.sharon import run_plan_pandas

        for call in (
            lambda: window_rows(pdf["time"].to_numpy(), within=100, slide=50),
            lambda: explode_windows_pandas(pdf, within=100, slide=50),
            lambda: run_plan_pandas(pdf, wl, None),
            lambda: run_plan_pandas(pdf, wl, None, first=5, stop=6),
        ):
            with pytest.raises(ValueError, match=f"event time {t} is negative"):
                call()

    def test_one_event(self):
        pdf = pd.DataFrame({"time": [250], "key": [3], "type": ["B"]})
        out = explode_windows_pandas(pdf, within=100, slide=30)
        assert out["wid"].tolist() == [6, 7, 8]
        pd.testing.assert_frame_equal(
            out, explode_per_event(pdf, within=100, slide=30)
        )

    def test_empty_stream(self):
        pdf = pd.DataFrame(
            {
                "time": np.empty(0, dtype=np.int64),
                "key": np.empty(0, dtype=np.int64),
                "type": np.empty(0, dtype=object),
            }
        )
        out = explode_windows_pandas(pdf, within=100, slide=50)
        assert out.empty and list(out.columns) == ["time", "key", "type", "wid"]
        pd.testing.assert_frame_equal(
            out, explode_per_event(pdf, within=100, slide=50)
        )

    def test_run_plan_pandas_empty_stream(self):
        from repro.runtime.sharon import run_plan_pandas

        pdf = pd.DataFrame(
            {
                "time": np.empty(0, dtype=np.int64),
                "key": np.empty(0, dtype=np.int64),
                "type": np.empty(0, dtype=object),
            }
        )
        wl = Workload.from_patterns([("A", "B")], within=100, slide=50)
        counts, stats = run_plan_pandas(pdf, wl, None)
        assert counts.empty
        assert list(counts.columns) == ["wid", "key", "qid", "cnt"]
        assert stats == {
            "partitions": 0,
            "rows": 0,
            "c_builds": 0,
            "c_bytes": 0,
            "builds_forward": 0,
            "builds_reverse": 0,
            "builds_cmatrix": 0,
            "segments": 1,
            "max_partition_rows": 0,
            "exact_fallback_partitions": 0,
        }
        assert counts["cnt"].dtype == np.int64


class TestPartitionRows:
    """The twin's partitioning equals the oracle's explosion, cut into
    (wid, key) partitions: same partitions, rows, row order and types."""

    @pytest.mark.parametrize("within,slide", [(100, 30), (30, 100), (7, 3)])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_explode_and_split(self, within, slide, seed):
        pdf = random_stream(seed, n=300, horizon=400, n_keys=4)
        groups = list(
            explode_windows_pandas(pdf, within=within, slide=slide).groupby(
                ["wid", "key"], sort=True
            )
        )
        got = partition_rows(pdf, within=within, slide=slide)
        assert list(zip(got.wids.tolist(), got.keys.tolist())) == [
            wk for wk, _ in groups
        ]
        for p, ((wid, _), g) in enumerate(groups):
            rows = got.pids == p
            assert (got.times[rows] + wid * slide).tolist() == g["time"].tolist()
            assert [got.names[c] for c in got.codes[rows]] == g["type"].tolist()
            assert (got.times[rows] >= 0).all() and (got.times[rows] < within).all()

    @pytest.mark.parametrize("within,slide", [(100, 30), (30, 100), (7, 3)])
    def test_window_range(self, within, slide):
        # A range's partitions are the full partitioning's partitions of
        # those windows, with the same rows.
        pdf = random_stream(4, n=300, horizon=400, n_keys=4)
        full = partition_rows(pdf, within=within, slide=slide)
        got = partition_rows(pdf, within=within, slide=slide, first=3, stop=8)
        parts = np.flatnonzero((full.wids >= 3) & (full.wids < 8))
        assert got.wids.tolist() == full.wids[parts].tolist()
        assert got.keys.tolist() == full.keys[parts].tolist()
        for p, q in enumerate(parts):
            rows, want = got.pids == p, full.pids == q
            assert got.times[rows].tolist() == full.times[want].tolist()
            assert got.codes[rows].tolist() == full.codes[want].tolist()

    def test_partitions_in_key_order(self):
        # Keys numbered by value, not by first appearance; most
        # (wid, key) pairs hold no event.
        pdf = pd.DataFrame(
            {"time": [5, 400, 900], "key": [10**6, 3, 7], "type": list("ABA")}
        )
        got = partition_rows(pdf, within=100, slide=100)
        assert got.wids.tolist() == [0, 4, 9]
        assert got.keys.tolist() == [10**6, 3, 7]
        assert got.pids.tolist() == [0, 1, 2]

    def test_missing_type_rejected(self):
        pdf = pd.DataFrame({"time": [1, 2], "key": [0, 0], "type": ["A", None]})
        with pytest.raises(ValueError):
            partition_rows(pdf, within=100, slide=50)


class TestOracleSqlBuilder:
    def test_two_types(self):
        sql = seq_count_sql(("A", "B"))
        assert "e0.type = 'A'" in sql and "e1.type = 'B'" in sql
        assert "e0.time < e1.time" in sql
        assert "GROUP BY e0.wid, e0.key" in sql

    def test_qid_column(self):
        assert seq_count_sql(("A", "B"), qid=7).startswith("SELECT 7 AS qid")

    def test_workload_union(self):
        sql = workload_count_sql({0: ("A", "B"), 1: ("B", "C")})
        assert sql.count("UNION ALL") == 1

    def test_counts_are_bigint(self):
        # The oracle counts in the engines' ``long``: exact, never DOUBLE.
        ev = pd.DataFrame(
            {
                "wid": [0, 0, 0, 1],
                "key": [1, 1, 1, 1],
                "time": [1, 2, 3, 4],
                "type": ["A", "A", "B", "B"],
            }
        )
        con = duckdb.connect()
        try:
            con.register("ev", ev)
            got = con.execute(seq_count_sql(("A", "B"))).fetchdf()
        finally:
            con.close()
        assert got["cnt"].dtype == np.int64
        assert got[["wid", "key", "cnt"]].values.tolist() == [[0, 1, 2]]

    def test_single_type_pattern(self):
        sql = seq_count_sql(("A",))
        assert "e0.type = 'A'" in sql and "UNION" not in sql


class TestRepeatedTypes:
    """Section 7.3: an event type occurring k times in a pattern."""

    def test_kernel_engine_against_oracle(self, spark):
        wl = Workload.from_patterns(
            [("A", "B", "A"), ("B", "A", "B"), ("A", "A")],
            within=120,
            slide=60,
        )
        pdf = event_stream(
            n_events=200, types=["A", "B", "C"], n_keys=3, duration=400, seed=9
        )
        from repro.runtime.sharon import run_plan

        got = run_plan(spark.createDataFrame(pdf), wl, None).select(
            "qid", "wid", "key", "cnt"
        )
        exploded = explode_windows_pandas(pdf, within=120, slide=60)
        assert_equivalent(
            got,
            workload_count_sql({q.qid: q.pattern for q in wl}),
            ev=exploded,
        )

    def test_streaming_with_repeated_types(self):
        from repro.runtime.sharon import run_plan_pandas
        from repro.runtime.streaming import MicroBatchExecutor, time_chunks

        wl = Workload.from_patterns([("A", "A", "B")], within=100, slide=50)
        pdf = event_stream(
            n_events=150, types=["A", "B"], n_keys=2, duration=300, seed=4
        )
        ex = MicroBatchExecutor(wl)
        for chunk in time_chunks(pdf, 4):
            ex.process_batch(chunk)
        want, _ = run_plan_pandas(pdf, wl, None)
        got = ex.results()
        pd.testing.assert_frame_equal(
            got.sort_values(["wid", "key"]).reset_index(drop=True)[
                ["wid", "key", "cnt"]
            ],
            want.sort_values(["wid", "key"]).reset_index(drop=True)[
                ["wid", "key", "cnt"]
            ],
            check_dtype=False,
        )


class TestQueryModel:
    def test_invalid_window(self):
        with pytest.raises(ValueError):
            Query(qid=0, pattern=("A",), within=0)

    def test_empty_pattern(self):
        with pytest.raises(ValueError):
            Query(qid=0, pattern=())

    @pytest.mark.parametrize("second", [(60, 60), (600, 300), (300, 60)])
    def test_mixed_windows_rejected(self, second):
        # Assumption 2: the executors explode the stream once with the first
        # query's window, so a query with another window would get its counts.
        within, slide = second
        with pytest.raises(ValueError, match="window"):
            Workload(
                [
                    Query(qid=0, pattern=("A", "B"), within=600, slide=60),
                    Query(qid=1, pattern=("B", "C"), within=within, slide=slide),
                ]
            )

    def test_workload_event_types(self):
        wl = Workload.from_patterns([("A", "B"), ("B", "C")])
        assert wl.event_types == {"A", "B", "C"}

    def test_find_leftmost(self):
        q = Query(qid=0, pattern=("A", "B", "A", "B"))
        assert q.find(("A", "B")) == 0
        assert q.find(("B", "A")) == 1
        assert q.find(("X",)) == -1
