"""Kernel correctness: chains, C-matrices and segment composition
against an independent brute-force dynamic program, on handcrafted
streams (including the paper's Figures 6-7 examples) and on randomized
streams via hypothesis."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.kernels import (
    Segment,
    SharedCache,
    TypeIndex,
    brute_force_count,
    compile_segments,
    count_queries,
    eval_query,
)


def count_pattern(times, types, pattern):
    """COUNT(*) of ``pattern`` in one partition — the Non-Shared method."""
    return eval_query(times, types, [Segment(pattern, shared=False)])


def chain_counts(times, types, pattern):
    """Completion counts of ``pattern`` at each event of one partition
    (nonzero only at events of the last type): its forward chain."""
    cache = SharedCache(times, types)
    out = np.zeros(len(times), dtype=np.int64)
    out[types == pattern[-1]] = cache.get_forward(pattern)
    return out


def c_matrix(times, types, pattern):
    """One partition's C-matrix as (start positions, end positions,
    dense C[s, e])."""
    cache = SharedCache(times, types)
    blocks = cache.get(pattern)
    starts = np.flatnonzero(types == pattern[0])
    ends = np.flatnonzero(types == pattern[-1])
    c = np.zeros((len(starts), len(ends)), dtype=np.int64)
    col = np.repeat(np.arange(len(ends)), np.diff(blocks.cols))
    c[blocks.rows, col] = blocks.vals
    return starts, ends, c


def stream(*events):
    """events: (time, type) pairs -> (times, types) numpy arrays."""
    times = np.array([t for t, _ in events], dtype=np.int64)
    types = np.array([ty for _, ty in events], dtype="U8")
    order = np.argsort(times, kind="stable")
    return times[order], types[order]


class TestPaperFigure6:
    """Example 1: stream a1 b2 a3 b4 b5, pattern (A, B)."""

    def test_counts_after_each_b(self):
        times, types = stream((1, "A"), (2, "B"), (3, "A"), (4, "B"), (5, "B"))
        comp = chain_counts(times, types, ("A", "B"))
        # b2 completes 1 sequence, b4 completes 2, b5 completes 2;
        # running count(A,B) after b4 is 3, after b5 is 5 (paper's values).
        assert comp.tolist() == [0.0, 1.0, 0.0, 2.0, 2.0]
        assert float(np.cumsum(comp)[3]) == 3.0
        assert float(comp.sum()) == 5.0


class TestPaperFigure7:
    """Example 3: count(A,B,C,D) combined from count(A,B) and count(C,D)."""

    EVENTS = [(1, "A"), (2, "B"), (3, "A"), (3, "C"), (4, "B"), (5, "B"),
              (5, "D"), (7, "C"), (8, "D")]

    def test_full_pattern_count_is_7(self):
        times, types = stream(*self.EVENTS)
        assert count_pattern(times, types, ("A", "B", "C", "D")) == 7.0

    def test_shared_combination_matches(self):
        times, types = stream(*self.EVENTS)
        cache = SharedCache(times, types)
        segs = [Segment(("A", "B"), shared=False), Segment(("C", "D"), shared=True)]
        assert eval_query(times, types, segs, cache) == 7.0

    def test_c_matrix_per_start_counts(self):
        # count(c3, D) = 2 (d5, d8); count(c7, D) = 1 (d8) -- Figure 7 rows.
        times, types = stream(*self.EVENTS)
        start_idx, end_idx, c = c_matrix(times, types, ("C", "D"))
        per_start = c.sum(axis=1)
        assert per_start.tolist() == [2.0, 1.0]


@pytest.mark.parametrize(
    "pattern",
    [("A", "B"), ("A", "B", "C"), ("B", "A"), ("A", "B", "A"), ("A", "A")],
)
def test_chain_matches_brute_force_handcrafted(pattern):
    times, types = stream(
        (1, "A"), (2, "B"), (2, "A"), (3, "C"), (4, "A"), (5, "B"), (5, "C"),
        (6, "A"), (7, "B"),
    )
    assert count_pattern(times, types, pattern) == brute_force_count(
        times, types, pattern
    )


class TestCompileSegments:
    def test_no_shared(self):
        segs = compile_segments(("A", "B", "C"), [])
        assert segs == [Segment(("A", "B", "C"), False)]

    def test_middle_shared(self):
        segs = compile_segments(("A", "B", "C", "D"), [("B", "C")])
        assert segs == [
            Segment(("A",), False),
            Segment(("B", "C"), True),
            Segment(("D",), False),
        ]

    def test_two_shared(self):
        segs = compile_segments(
            ("A", "B", "C", "D", "E"), [("D", "E"), ("A", "B")]
        )
        assert segs == [
            Segment(("A", "B"), True),
            Segment(("C",), False),
            Segment(("D", "E"), True),
        ]

    def test_whole_pattern_shared(self):
        segs = compile_segments(("A", "B"), [("A", "B")])
        assert segs == [Segment(("A", "B"), True)]

    def test_overlapping_shared_rejected(self):
        with pytest.raises(ValueError):
            compile_segments(("A", "B", "C"), [("A", "B"), ("B", "C")])

    def test_absent_pattern_rejected(self):
        with pytest.raises(ValueError):
            compile_segments(("A", "B"), [("X", "Y")])


SEGMENTATIONS = [
    ("prefix-shared-suffix", ("A", "B", "C", "D"), [("B", "C")]),
    ("shared-suffix", ("A", "B", "C"), [("A", "B")]),
    ("prefix-shared", ("A", "B", "C"), [("B", "C")]),
    ("all-shared", ("A", "B", "C"), [("A", "B", "C")]),
    ("two-shared", ("A", "B", "C", "D"), [("A", "B"), ("C", "D")]),
    ("long-shared", ("A", "B", "C", "D", "E"), [("B", "C", "D")]),
]


@pytest.mark.parametrize("name,qpat,shared", SEGMENTATIONS, ids=[s[0] for s in SEGMENTATIONS])
def test_shared_equals_nonshared_handcrafted(name, qpat, shared):
    rng = np.random.default_rng(hash(name) % 2**32)
    n = 60
    times = np.sort(rng.integers(0, 40, n)).astype(np.int64)
    types = rng.choice(list("ABCDE"), n).astype("U8")
    cache = SharedCache(times, types)
    segs = compile_segments(qpat, shared)
    shared_cnt = eval_query(times, types, segs, cache)
    plain_cnt = count_pattern(times, types, qpat)
    assert shared_cnt == plain_cnt
    assert cache.builds == len(shared)


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 15), st.sampled_from("ABC")),
        min_size=0,
        max_size=25,
    ),
    pattern=st.sampled_from(
        [("A", "B"), ("A", "B", "C"), ("C", "A"), ("B", "B"), ("A", "C", "B")]
    ),
)
def test_chain_matches_brute_force_random(data, pattern):
    if not data:
        return
    times, types = stream(*data)
    assert count_pattern(times, types, pattern) == brute_force_count(
        times, types, pattern
    )


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 20), st.sampled_from("ABCD")),
        min_size=1,
        max_size=30,
    ),
)
def test_shared_combination_matches_brute_force_random(data):
    times, types = stream(*data)
    qpat = ("A", "B", "C", "D")
    cache = SharedCache(times, types)
    segs = compile_segments(qpat, [("B", "C")])
    assert eval_query(times, types, segs, cache) == brute_force_count(
        times, types, qpat
    )


class TestSharedCacheReuse:
    def test_c_built_once_for_many_queries(self):
        rng = np.random.default_rng(7)
        times = np.sort(rng.integers(0, 50, 80)).astype(np.int64)
        types = rng.choice(list("ABCDEF"), 80).astype("U8")
        cache = SharedCache(times, types)
        for qpat in [("A", "B", "C"), ("D", "B", "C"), ("E", "B", "C", "F")]:
            eval_query(times, types, compile_segments(qpat, [("B", "C")]), cache)
        # Two shared aggregates total: the reverse chain (suffix-position
        # queries 1-2 reuse it) and the C-matrix (mid-position query 3);
        # never one build per query.
        assert cache.builds == 2

    def test_state_bytes_positive(self):
        times, types = stream((1, "A"), (2, "B"))
        cache = SharedCache(times, types)
        cache.get(("A", "B"))
        assert cache.state_bytes == 8  # one 1x1 C matrix


class TestIntCodedTypes:
    def test_codes_index_like_names(self):
        rng = np.random.default_rng(3)
        times = np.sort(rng.integers(0, 40, 60)).astype(np.int64)
        types = rng.choice(list("ABCDE"), 60).astype("U8")
        names = ["E", "A", "D", "C", "B", "Z"]
        codes = np.array([names.index(t) for t in types])
        by_name = TypeIndex(times, types)
        by_code = TypeIndex(times, codes, names)
        for t in names:
            # One partition: a key is the event's time offset.
            want = (times[types == t] - times.min()).tolist()
            assert by_code.of(t).keys.tolist() == by_name.of(t).keys.tolist() == want

    def test_shared_cache_over_codes(self):
        times, types = stream(
            (1, "A"), (2, "B"), (3, "C"), (3, "A"), (4, "B"), (5, "C"), (6, "D")
        )
        names = ["D", "C", "B", "A"]
        codes = np.array([names.index(t) for t in types])
        segs = compile_segments(("A", "B", "C", "D"), [("B", "C")])
        want = eval_query(times, types, segs, SharedCache(times, types))
        got = eval_query(times, codes, segs, SharedCache(times, codes, names))
        assert got == want == brute_force_count(times, types, ("A", "B", "C", "D"))


class TestEdgeCases:
    def test_no_matching_events(self):
        times, types = stream((1, "X"), (2, "Y"))
        assert count_pattern(times, types, ("A", "B")) == 0.0

    def test_single_event_pattern(self):
        times, types = stream((1, "A"), (2, "A"), (3, "B"))
        assert count_pattern(times, types, ("A",)) == 2.0

    def test_all_same_timestamp_no_sequences(self):
        times, types = stream((5, "A"), (5, "B"), (5, "A"), (5, "B"))
        assert count_pattern(times, types, ("A", "B")) == 0.0

    def test_repeated_type_in_pattern(self):
        # Section 7.3: (A, A) over a1 a2 a3 -> 3 pairs.
        times, types = stream((1, "A"), (2, "A"), (3, "A"))
        assert count_pattern(times, types, ("A", "A")) == 3.0

    def test_shared_segment_empty_starts(self):
        times, types = stream((1, "A"), (2, "B"))
        cache = SharedCache(times, types)
        segs = [Segment(("C", "D"), True)]
        assert eval_query(times, types, segs, cache) == 0.0


LONG = tuple(f"T{j}" for j in range(10))


def blocks(order, per_type, t0=0):
    """``per_type`` events of each type of ``order``, one block of
    distinct times per type, blocks in that order."""
    times = np.arange(t0, t0 + per_type * len(order), dtype=np.int64)
    types = np.repeat(np.array(order), per_type)
    return times, types


class TestExactCounts:
    """Counts are exact int64; counts that cannot be must not wrap."""

    def test_beyond_float64_is_exact(self):
        # 41^10 is odd and above 2^53: no float64 holds it.
        times, types = blocks(LONG, 41)
        want = 41**10
        assert want == 13_422_659_310_152_401 and want > 2**53
        assert brute_force_count(times, types, LONG) == want
        assert eval_query(times, types, [Segment(LONG, False)]) == want
        segs = compile_segments(LONG, [LONG[3:7]])  # mid-query C-matrix
        assert eval_query(times, types, segs) == want

    def test_huge_bound_small_count_takes_python_ints(self):
        # Each type's block lies after the next type's, then one event
        # of each type in pattern order: a sequence takes any T0 (80 in
        # the block and the tail's one), then the tail's T1..T9. The
        # size bound 81^10 is above 2^63.
        times, types = blocks(LONG[::-1], 80)
        tail_t, tail_ty = blocks(LONG, 1, t0=len(times))
        times, types = np.r_[times, tail_t], np.r_[types, tail_ty]
        assert 81.0**10 > 2.0**63
        small_t, small_ty = blocks(LONG, 2, t0=0)
        all_t = np.r_[small_t, times]
        all_ty = np.r_[small_ty, types]
        pids = np.r_[np.zeros(len(small_t), int), np.ones(len(times), int)]
        names = list(LONG)
        codes = np.searchsorted(names, all_ty)
        cache = SharedCache(all_t, codes, names, pids=pids, n_parts=2)
        counts, stats = count_queries(cache, [[Segment(LONG, False)]])
        assert counts.dtype == np.int64
        assert counts.tolist() == [[2**10, 81]]
        assert stats["exact_fallback_partitions"] == 1
        assert eval_query(times, types, [Segment(LONG, False)]) == 81

    @pytest.mark.parametrize("shared", [[], [LONG[3:7]]])
    def test_big_partition_small_types_compute_no_bound(self, monkeypatch, shared):
        # 200 events in one partition and 200^10 >= 2^63, but 20 events
        # per type and 20^10 < 2^63: no count can overflow, so no
        # query's size bound is computed.
        times, types = blocks(LONG, 20)
        times = np.random.default_rng(5).permutation(times)
        order = np.argsort(times)
        times, types = times[order], types[order]
        assert 200.0**10 >= 2.0**63 > 20.0**10
        calls = []
        size_bound = TypeIndex.size_bound
        monkeypatch.setattr(
            TypeIndex, "size_bound",
            lambda ix, pattern: calls.append(pattern) or size_bound(ix, pattern),
        )
        counts, stats = count_queries(
            SharedCache(times, types), [compile_segments(LONG, shared)]
        )
        assert calls == []
        assert stats["exact_fallback_partitions"] == 0
        assert counts.tolist() == [[brute_force_count(times, types, LONG)]]

    @pytest.mark.parametrize("shared", [[], [LONG[:4]], [LONG[6:]], [LONG[2:5]]])
    def test_count_beyond_int64_raises(self, shared):
        # 90^10 > 2^63: the count does not fit the int64 column.
        times, types = blocks(LONG, 90)
        with pytest.raises(OverflowError):
            eval_query(times, types, compile_segments(LONG, shared))


# Queries covering every evaluation path: private chains (one with a
# repeated type), a shared prefix (forward build), shared suffixes
# (reverse build, one behind a repeated type) and mid-query C-matrices.
PROPERTY_QUERIES = [
    (("A", "B", "C"), []),
    (("A", "A"), []),
    (("C",), []),
    (("A", "B", "C", "D"), [("B", "C")]),
    (("B", "C", "D", "A"), [("C", "D")]),
    (("A", "B", "C"), [("A", "B")]),
    (("D", "A", "B"), [("A", "B")]),
    (("A", "A", "B"), [("A", "B")]),
    (("A", "B", "C", "D"), [("A", "B"), ("C", "D")]),
]


@settings(max_examples=80, deadline=None)
@given(
    data=st.lists(
        st.tuples(
            st.integers(0, 12), st.integers(0, 4), st.sampled_from("ABCD")
        ),
        max_size=40,
    ),
    extra_parts=st.integers(0, 2),
)
def test_one_pass_equals_per_partition_and_brute_force(data, extra_parts):
    """Many partitions (some empty, some missing types, tied times) in
    one pass equal one-partition passes and the brute-force oracle."""
    n_parts = 5 + extra_parts  # partitions 5.. are always empty
    data = sorted(data, key=lambda e: e[0])  # time order, partitions mixed
    times = np.array([t for t, _, _ in data], dtype=np.int64)
    pids = np.array([p for _, p, _ in data], dtype=np.int64)
    types = np.array([ty for _, _, ty in data], dtype="U1")
    names = ["D", "C", "B", "A"]
    codes = np.array([names.index(t) for t in types], dtype=np.int64)
    queries = [compile_segments(q, shared) for q, shared in PROPERTY_QUERIES]
    counts, stats = count_queries(
        SharedCache(times, codes, names, pids=pids, n_parts=n_parts), queries
    )
    assert counts.shape == (len(queries), n_parts)
    for p in range(n_parts):
        rows = pids == p
        one, _ = count_queries(
            SharedCache(times[rows], codes[rows], names), queries
        )
        assert counts[:, p].tolist() == one[:, 0].tolist()
        for i, (q, _) in enumerate(PROPERTY_QUERIES):
            assert counts[i, p] == brute_force_count(times[rows], types[rows], q)
    # Each shared aggregate is built once per pass, whatever the
    # number of partitions.
    assert (
        stats["builds_forward"], stats["builds_reverse"], stats["builds_cmatrix"]
    ) == (1, 2, 2)
    assert stats["c_builds"] == 5
    assert stats["segments"] == sum(len(s) for s in queries)
