"""Property-based tests: sampling statistics and collision invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.spe.sampler import collision_scan, sample_positions


class TestSamplePositionProperties:
    @given(
        st.integers(0, 2_000_000),
        st.integers(1, 100_000),
        st.booleans(),
        st.integers(0, 2**31),
    )
    @settings(max_examples=60, deadline=None)
    def test_positions_valid(self, n_ops, period, jitter, seed):
        rng = np.random.default_rng(seed)
        pos, carry = sample_positions(n_ops, period, jitter, rng)
        assert carry >= 1
        if pos.size:
            assert pos[0] >= 0
            assert pos[-1] < n_ops
            assert (np.diff(pos) > 0).all()
            # no interval may exceed the period
            assert (np.diff(pos) <= period).all()

    @given(st.integers(100_000, 2_000_000), st.integers(100, 5000),
           st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_count_unbiased(self, n_ops, period, seed):
        rng = np.random.default_rng(seed)
        pos, _ = sample_positions(n_ops, period, False, rng)
        expected = n_ops / period
        assert pos.size == expected or abs(pos.size - expected) <= max(
            3, 0.05 * expected
        )

    @given(st.integers(1000, 200_000), st.integers(100, 5000),
           st.integers(1, 6), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_split_streams_equal_whole(self, n_ops, period, splits, seed):
        """Carrying the counter across phase boundaries conserves the
        total sample count (within perturbation noise)."""
        rng = np.random.default_rng(seed)
        whole, _ = sample_positions(n_ops, period, False,
                                    np.random.default_rng(seed))
        carry = None
        total = 0
        chunk = n_ops // splits
        done = 0
        for i in range(splits):
            size = chunk if i < splits - 1 else n_ops - done
            pos, carry = sample_positions(size, period, False, rng, carry)
            total += pos.size
            done += size
        assert abs(total - whole.size) <= max(3, 0.05 * max(whole.size, 1))


class TestCollisionProperties:
    @given(
        st.lists(st.tuples(st.floats(0, 1e6), st.floats(0.1, 1e4)),
                 min_size=1, max_size=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_kept_samples_never_overlap(self, pairs):
        t = np.sort(np.array([p[0] for p in pairs]))
        lat = np.array([p[1] for p in pairs])
        keep, n_coll = collision_scan(t, lat)
        assert keep[0]  # first sample always kept
        assert n_coll == (~keep).sum()
        kt, kl = t[keep], lat[keep]
        # invariant: each kept sample starts after the previous completes
        assert (kt[1:] >= kt[:-1] + kl[:-1] - 1e-9).all()

    @given(st.integers(1, 500), st.floats(1.0, 100.0))
    @settings(max_examples=30, deadline=None)
    def test_zero_latency_gap_keeps_everything(self, n, gap):
        t = np.arange(n) * gap
        lat = np.full(n, gap * 0.5)
        keep, n_coll = collision_scan(t, lat)
        assert keep.all() and n_coll == 0
