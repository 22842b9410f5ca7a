"""Address-pattern builder tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.errors import WorkloadError
from repro.workloads.access_patterns import (
    local_window,
    random_in,
    round_robin,
    sequential,
    strided,
    weighted_mix,
)
from repro.workloads.stream import StreamWorkload


class TestSequential:
    def test_thread_chunks_disjoint(self):
        fn = sequential(0x1000, 1000, 8, n_threads=4)
        idx = np.arange(100)
        ranges = []
        for t in range(4):
            a = fn(idx, t)
            ranges.append((a.min(), a.max()))
        ranges.sort()
        for (lo0, hi0), (lo1, _) in zip(ranges, ranges[1:]):
            assert hi0 < lo1

    def test_monotone_within_chunk(self):
        fn = sequential(0, 1000, 8, n_threads=2)
        a = fn(np.arange(50), 0)
        assert (np.diff(a.astype(np.int64)) == 8).all()

    def test_wraps_for_multiple_passes(self):
        fn = sequential(0, 10, 4, n_threads=1)
        a = fn(np.arange(25), 0)
        assert a[0] == a[10] == a[20]

    def test_validation(self):
        with pytest.raises(WorkloadError):
            sequential(0, 0, 8)


class TestStrided:
    def test_stride_applied(self):
        fn = strided(0, 1024, 8, stride_elems=16, n_threads=1)
        a = fn(np.arange(4), 0)
        assert (np.diff(a.astype(np.int64)) == 16 * 8).all()

    def test_bad_stride(self):
        with pytest.raises(WorkloadError):
            strided(0, 10, 8, stride_elems=0)


class TestRandomIn:
    def test_within_bounds(self):
        fn = random_in(0x1000, 100, 8)
        a = fn(np.arange(10_000), 0)
        assert (a >= 0x1000).all()
        assert (a < 0x1000 + 800).all()

    def test_covers_object(self):
        fn = random_in(0, 64, 1)
        a = fn(np.arange(5000), 0)
        assert np.unique(a).size > 60

    def test_thread_salted(self):
        fn = random_in(0, 1000, 8)
        a0 = fn(np.arange(100), 0)
        a1 = fn(np.arange(100), 1)
        assert (a0 != a1).any()


class TestLocalWindow:
    def test_stays_near_sweep_position(self):
        fn = local_window(0, 100_000, 4, window=50, n_threads=1)
        idx = np.arange(1000, 2000)
        a = fn(idx, 0)
        elems = a // 4
        assert (np.abs(elems.astype(np.int64) - idx) <= 50).all()

    def test_global_fraction_jumps(self):
        fn = local_window(
            0, 1_000_000, 4, window=10, n_threads=1, global_fraction=0.5
        )
        idx = np.arange(1000)
        elems = (fn(idx, 0) // 4).astype(np.int64)
        far = np.abs(elems - idx) > 1000
        assert far.mean() == pytest.approx(0.5, abs=0.1)

    def test_bounds_clipped(self):
        fn = local_window(0, 100, 4, window=1000, n_threads=1)
        a = fn(np.arange(100), 0)
        assert (a < 400).all()

    def test_validation(self):
        with pytest.raises(WorkloadError):
            local_window(0, 10, 4, window=0)
        with pytest.raises(WorkloadError):
            local_window(0, 10, 4, window=1, global_fraction=2.0)


class TestCombinators:
    def test_round_robin_cycles(self):
        pa = sequential(0x0, 100, 8)
        pb = sequential(0x10000, 100, 8)
        fn = round_robin([pa, pb])
        a = fn(np.arange(10), 0)
        assert (a[::2] < 0x10000).all()
        assert (a[1::2] >= 0x10000).all()

    def test_round_robin_sub_index_advances(self):
        pa = sequential(0, 100, 8)
        fn = round_robin([pa, pa])
        a = fn(np.array([0, 2, 4]), 0)
        assert (np.diff(a.astype(np.int64)) == 8).all()

    def test_weighted_mix_ratios(self):
        pa = sequential(0x0, 100, 8)
        pb = sequential(0x100000, 100, 8)
        fn = weighted_mix([(pa, 3.0), (pb, 1.0)])
        a = fn(np.arange(40_000), 0)
        frac_b = (a >= 0x100000).mean()
        assert frac_b == pytest.approx(0.25, abs=0.02)

    def test_empty_rejected(self):
        with pytest.raises(WorkloadError):
            round_robin([])
        with pytest.raises(WorkloadError):
            weighted_mix([])

    def test_bad_weights(self):
        pa = sequential(0, 10, 8)
        with pytest.raises(WorkloadError):
            weighted_mix([(pa, 0.0)])


def every_builder(n_elems, n_threads):
    """One function from each builder, plus nested combinators."""
    seq = sequential(0x1000, n_elems, 8, n_threads=n_threads, passes=2)
    strd = strided(0x200000, n_elems, 4, stride_elems=3, n_threads=n_threads)
    rnd = random_in(0x400000, n_elems, 8, salt=5)
    win = local_window(
        0x800000, n_elems, 4, window=7, n_threads=n_threads, salt=3,
        global_fraction=0.3,
    )
    rr = round_robin([seq, rnd, win])
    return {
        "sequential": seq,
        "strided": strd,
        "random_in": rnd,
        "local_window": win,
        "round_robin": rr,
        "weighted_mix": weighted_mix(
            [(strd, 1.0), (rr, 2.0), (round_robin([win, seq]), 0.5)],
            salt=9,
        ),
    }


def assert_one_call_matches_per_thread_calls(fn, mem_idx, threads):
    got = fn(mem_idx, threads)
    want = None
    for t in np.unique(threads):
        m = threads == t
        part = fn(mem_idx[m], int(t))
        if want is None:
            want = np.empty(mem_idx.shape, dtype=part.dtype)
        want[m] = part
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestThreadIdArrays:
    """A call with one thread id per index equals the per-thread calls."""

    @given(
        st.integers(1, 8), st.integers(0, 7), st.integers(0, 2**32 - 1)
    )
    @example(3, 2, 0)  # 152 elements over 3 threads: a remainder chunk
    @settings(max_examples=40, deadline=None)
    def test_every_builder(self, n_threads, extra, seed):
        n_elems = 50 * n_threads + extra
        rng = np.random.default_rng(seed)
        mem_idx = rng.integers(0, 4 * n_elems, size=300)
        threads = rng.integers(0, n_threads, size=300)
        for fn in every_builder(n_elems, n_threads).values():
            assert_one_call_matches_per_thread_calls(fn, mem_idx, threads)

    def test_stream_kind_and_address_functions(self, tiny):
        w = StreamWorkload(tiny, n_threads=3, n_elems=1000, iterations=1)
        rng = np.random.default_rng(4)
        mem_idx = rng.integers(0, w.phases[0].n_mem_ops, size=500)
        threads = rng.integers(0, 3, size=500)
        for phase in w.phases:  # init, then the triad
            for fn in (phase.kind_fn, phase.addr_fn):
                assert_one_call_matches_per_thread_calls(fn, mem_idx, threads)
