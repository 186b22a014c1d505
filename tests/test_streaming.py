"""Chunked micro-batch processing must be identical to one-shot batch
evaluation, with bounded state: the driver holds only the events of open
windows and emits a window's counts once the stream has passed it."""
import duckdb
import numpy as np
import pandas as pd
import pytest

from repro.core.model import Workload
from repro.oracle_sql import workload_count_sql
from repro.runtime import kernels, streaming
from repro.runtime.sharon import run_plan_pandas
from repro.runtime.streaming import MicroBatchExecutor, time_chunks
from repro.runtime.windows import explode_windows_pandas, window_rows
from repro.synth_data import event_stream
from repro.workloads import traffic_workload


def make_stream(seed=0, n=400, duration=600, within=120, slide=60):
    wl = traffic_workload(within=within, slide=slide)
    pdf = event_stream(
        n_events=n, types=sorted(wl.event_types), n_keys=3, duration=duration, seed=seed
    )
    return wl, pdf


def canon(counts):
    return counts.sort_values(["wid", "key", "qid"]).reset_index(drop=True)[
        ["wid", "key", "qid", "cnt"]
    ]


def batch_result(wl, pdf):
    res, _ = run_plan_pandas(pdf, wl, None)
    return canon(res)


def feed(wl, chunks):
    """A fresh executor fed ``chunks`` in order."""
    ex = MicroBatchExecutor(wl)
    for chunk in chunks:
        ex.process_batch(chunk)
    return ex


@pytest.mark.parametrize("within,slide", [(120, 60), (30, 100), (7, 3)])
@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 25])
def test_chunked_equals_batch(n_chunks, within, slide):
    # (30, 100) leaves gaps between windows; 7 is no multiple of 3.
    wl, pdf = make_stream(seed=21, within=within, slide=slide)
    ex = feed(wl, time_chunks(pdf, n_chunks))
    pd.testing.assert_frame_equal(canon(ex.results()), batch_result(wl, pdf))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_chunked_equals_batch_across_seeds(seed):
    wl, pdf = make_stream(seed=seed, n=250)
    ex = feed(wl, time_chunks(pdf, 5))
    pd.testing.assert_frame_equal(canon(ex.results()), batch_result(wl, pdf))


def oracle_counts(wl, pdf):
    """The DuckDB oracle's (wid, key, qid, cnt) over the exploded stream."""
    con = duckdb.connect()
    try:
        q0 = wl[0]
        con.register("ev", explode_windows_pandas(pdf, within=q0.within, slide=q0.slide))
        got = con.execute(workload_count_sql({q.qid: q.pattern for q in wl})).fetchdf()
    finally:
        con.close()
    return canon(got.astype(np.int64))


@pytest.fixture
def passes(monkeypatch):
    """The driver's ``run_plan_pandas`` passes, in order: each pass's
    stats plus ``carries``, the kernels' carries it made."""
    seen: list[dict] = []
    carries = [0]
    carry = kernels.TypeIndex.carry

    def counted_carry(*args, **kwargs):
        carries[0] += 1
        return carry(*args, **kwargs)

    def spy(*args, **kwargs):
        before = carries[0]
        counts, stats = run_plan_pandas(*args, **kwargs)
        seen.append({**stats, "carries": carries[0] - before})
        return counts, stats

    monkeypatch.setattr(kernels.TypeIndex, "carry", counted_carry)
    monkeypatch.setattr(streaming, "run_plan_pandas", spy)
    return seen


@pytest.mark.parametrize(
    "within,slide", [(120, 60), (600, 60), (30, 100), (7, 3)]
)
@pytest.mark.parametrize("n_chunks", [1, 2, 3, 7, 25])
def test_each_row_counted_once(passes, n_chunks, within, slide):
    # WITHIN/SLIDE = 2 and 10, gaps between windows, and WITHIN no
    # multiple of SLIDE: over a whole stream, the driver's passes
    # evaluate each (event, window) row of the one-shot stream once.
    wl, pdf = make_stream(seed=13, within=within, slide=slide)
    got = canon(feed(wl, time_chunks(pdf, n_chunks)).results())
    src, _ = window_rows(pdf["time"].to_numpy(), within=within, slide=slide)
    assert sum(p["rows"] for p in passes) == len(src)
    # Closing passes (all but results()'s) only for windows holding events.
    assert all(p["rows"] > 0 for p in passes[:-1])
    pd.testing.assert_frame_equal(got, batch_result(wl, pdf))
    pd.testing.assert_frame_equal(got, oracle_counts(wl, pdf))


def test_late_start(passes):
    # Epoch-like times: the first batch closes windows 0 .. ~1.7e7 at
    # once, none of which holds an event, and no pass is made for them.
    wl, pdf = make_stream(seed=17)
    pdf = pdf.assign(time=pdf["time"] + 60 * 16_666_667)  # ~1e9, on a window start
    ex = feed(wl, time_chunks(pdf, 25))
    got = canon(ex.results())
    assert passes and all(p["rows"] > 0 for p in passes)
    assert got["wid"].min() == 16_666_666
    pd.testing.assert_frame_equal(got, batch_result(wl, pdf))
    pd.testing.assert_frame_equal(got, oracle_counts(wl, pdf))


class TestWindowLifecycle:
    def test_state_bounded_on_long_stream(self):
        # A stream of 45 windows' span: the held events must stay within
        # one WITHIN span plus one batch, not grow with the stream.
        within, batch_span = 120, 40
        wl, pdf = make_stream(seed=5, n=4500, duration=45 * within)
        t = pdf["time"].to_numpy()
        span_max = int((np.searchsorted(t, t + within) - np.arange(len(t))).max())
        ex = MicroBatchExecutor(wl)
        peak = 0
        for chunk in time_chunks(pdf, len(np.unique(t)) // batch_span):
            ex.process_batch(chunk)
            peak = max(peak, ex.n_state_counters)
            assert ex.n_state_counters <= span_max + len(chunk)
        assert 0 < peak < len(pdf) / 10
        pd.testing.assert_frame_equal(canon(ex.results()), batch_result(wl, pdf))

    def test_exact_count_beyond_float64(self):
        # 41 events of each of 10 types in pattern order in one window,
        # which the last batch closes: 41^10 sequences, an odd count
        # above 2^53 that no float64 holds.
        pattern = tuple(f"E{i}" for i in range(10))
        wl = Workload.from_patterns([pattern], within=410, slide=410)
        pdf = pd.DataFrame(
            {
                "time": np.arange(410, dtype=np.int64),
                "key": np.zeros(410, dtype=np.int64),
                "type": np.repeat(pattern, 41).astype(object),
            }
        )
        got = feed(wl, time_chunks(pdf, 4)).results()
        assert got["cnt"].dtype == np.int64
        assert got["cnt"].tolist() == [13_422_659_310_152_401] == [41**10]

    def test_results_idempotent_mid_stream(self):
        wl, pdf = make_stream(seed=8)
        chunks = list(time_chunks(pdf, 6))
        ex = feed(wl, chunks[:3])
        held = ex.n_state_counters
        first = ex.results()
        pd.testing.assert_frame_equal(ex.results(), first)
        assert ex.n_state_counters == held
        pd.testing.assert_frame_equal(
            canon(first), batch_result(wl, pd.concat(chunks[:3]))
        )
        for chunk in chunks[3:]:
            ex.process_batch(chunk)
        pd.testing.assert_frame_equal(canon(ex.results()), batch_result(wl, pdf))

    def test_closed_window_evicts_its_events(self):
        # Tumbling windows of 10: the batch that reaches time 12 closes
        # window 0 ([0, 10)), so only the events at 10..12 stay held.
        wl = Workload.from_patterns([("A", "B")], within=10, slide=10)
        pdf = pd.DataFrame(
            {
                "time": np.arange(13, dtype=np.int64),
                "key": np.zeros(13, dtype=np.int64),
                "type": np.array(list("ABABABABABABA"), dtype=object),
            }
        )
        ex = MicroBatchExecutor(wl)
        ex.process_batch(pdf[pdf["time"] < 5])
        assert ex.n_state_counters == 5
        ex.process_batch(pdf[pdf["time"] >= 5])
        assert ex.n_state_counters == 3
        pd.testing.assert_frame_equal(canon(ex.results()), batch_result(wl, pdf))


class TestBatchDiscipline:
    def test_out_of_order_batch_rejected(self):
        wl, pdf = make_stream()
        ex = MicroBatchExecutor(wl)
        chunks = list(time_chunks(pdf, 4))
        ex.process_batch(chunks[1])
        with pytest.raises(ValueError):
            ex.process_batch(chunks[0])

    @pytest.mark.parametrize("t0", [-1, -60, -61, -500])
    def test_negative_times_rejected(self, t0):
        # Windows start at time 0: a first batch before it is refused
        # as such, and the driver holds nothing.
        wl, pdf = make_stream()
        ex = MicroBatchExecutor(wl)
        with pytest.raises(ValueError, match=f"event time {t0} is negative"):
            ex.process_batch(pdf.assign(time=pdf["time"] - pdf["time"].min() + t0))
        assert ex.n_state_counters == 0

    def test_empty_batch_ok(self):
        wl, pdf = make_stream()
        ex = MicroBatchExecutor(wl)
        ex.process_batch(pdf.iloc[0:0])
        assert ex.results().empty

    def test_ties_never_straddle_chunks(self):
        wl, pdf = make_stream(n=300, duration=50)  # many timestamp ties
        chunks = list(time_chunks(pdf, 10))
        seen_max = -1
        for c in chunks:
            assert int(c["time"].min()) > seen_max
            seen_max = int(c["time"].max())


def test_benchmark_replay_matches_twin():
    # The benchmark's closed- and open-loop replays drive the executor
    # through its whole public surface.
    from perfbench.stream_replay import OpenLoop, closed_loop

    wl, pdf = make_stream(seed=3)
    batches = list(time_chunks(pdf, 12))
    want = batch_result(wl, pdf)
    pd.testing.assert_frame_equal(canon(closed_loop(wl, batches)), want)
    ol = OpenLoop(wl, batches, rate=1e12)
    ol.run(len(batches))
    (done,) = ol.take_finished()
    pd.testing.assert_frame_equal(canon(done.results()), want)
    assert ol.pass_state_counters > 0
