"""SPE sampler tests: interval counter, collisions, filtering."""

import numpy as np
import pytest

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import OpKind
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError
from repro.machine.hierarchy import MemLevel
from repro.spe.config import SpeConfig
from repro.spe.sampler import (
    SpeSampler,
    TraceOpSource,
    collision_scan,
    sample_positions,
)
from repro.spe.strategies import _renewal_positions


class TestSamplePositions:
    def test_count_close_to_n_over_period(self, rng):
        pos, _ = sample_positions(1_000_000, 1000, False, rng)
        assert pos.size == pytest.approx(1000, rel=0.02)

    def test_positions_sorted_in_range(self, rng):
        pos, _ = sample_positions(100_000, 512, True, rng)
        assert (np.diff(pos) > 0).all()
        assert pos[0] >= 0 and pos[-1] < 100_000

    def test_jitter_widens_interval_spread(self, rng):
        p1, _ = sample_positions(10_000_000, 4096, False, rng)
        p2, _ = sample_positions(10_000_000, 4096, True, rng)
        assert np.diff(p2).std() > np.diff(p1).std() * 2

    def test_inherent_perturbation_present(self, rng):
        """The counter is never perfectly periodic (paper §II-A)."""
        pos, _ = sample_positions(10_000_000, 4096, False, rng)
        assert np.diff(pos).std() > 0

    def test_carry_continues_stream(self, rng):
        # split a stream in two: totals should match an unsplit run closely
        n = 1_000_000
        pos_a, carry = sample_positions(n // 2, 1000, False, rng)
        pos_b, _ = sample_positions(n - n // 2, 1000, False, rng, carry=carry)
        total = pos_a.size + pos_b.size
        assert total == pytest.approx(1000, abs=3)

    def test_carry_larger_than_stream(self, rng):
        pos, res = sample_positions(10, 1000, False, rng, carry=500)
        assert pos.size == 0
        assert res == 490

    def test_many_short_phases_do_not_lose_samples(self, rng):
        """The phase-boundary bug the reproduction fixed: a counter reset
        per phase would lose ~half a period per phase."""
        carry = None
        total = 0
        for _ in range(200):
            pos, carry = sample_positions(5000, 8000, False, rng, carry=carry)
            total += pos.size
        assert total == pytest.approx(200 * 5000 / 8000, rel=0.05)

    def test_zero_ops(self, rng):
        pos, carry = sample_positions(0, 100, False, rng)
        assert pos.size == 0 and carry > 0

    def test_bad_period(self, rng):
        with pytest.raises(SpeError):
            sample_positions(100, 0, False, rng)

    def test_bad_carry(self, rng):
        with pytest.raises(SpeError):
            sample_positions(100, 10, False, rng, carry=0)

    @pytest.mark.parametrize("jitter", [False, True])
    def test_period_one_selects_every_op(self, jitter):
        # the perturbation window is clamped to the period: every reload
        # is 1, so no gap is 0 and no first draw is an invalid carry
        for seed in range(20):
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            pos, carry = sample_positions(1000, 1, jitter, rng)
            assert pos.tolist() == list(range(1000)) and carry == 1
            assert rng.bit_generator.state == state

    @pytest.mark.parametrize("jitter", [False, True])
    @pytest.mark.parametrize("period", [2, 3, 17, 256, 4096])
    def test_the_window_clamp_moves_no_period_above_one(self, period, jitter):
        # the gap draw every period >= 2 made before the clamp
        window = max(2, period // 16) if jitter else max(2, period // 256)
        for seed in range(3):
            rng, twin = (np.random.default_rng(seed) for _ in range(2))
            got = sample_positions(50_000, period, jitter, rng, carry=None)
            want = _renewal_positions(
                50_000,
                lambda k: period - twin.integers(0, window, size=k,
                                                 dtype=np.int64),
                period - window,
                None,
            )
            assert got[0].tolist() == want[0].tolist() and got[1] == want[1]
            assert rng.bit_generator.state == twin.bit_generator.state


class TestCollisionScan:
    def test_no_overlap_no_collisions(self):
        t = np.array([0.0, 100.0, 200.0])
        lat = np.array([10.0, 10.0, 10.0])
        keep, n = collision_scan(t, lat)
        assert keep.all() and n == 0

    def test_busy_tracker_drops_next(self):
        t = np.array([0.0, 50.0, 200.0])
        lat = np.array([100.0, 10.0, 10.0])
        keep, n = collision_scan(t, lat)
        assert keep.tolist() == [True, False, True]
        assert n == 1

    def test_dropped_sample_does_not_extend_window(self):
        # sample1 busy until 100; sample2 at 90 dropped (its own latency
        # long but irrelevant); sample3 at 110 kept
        t = np.array([0.0, 90.0, 110.0])
        lat = np.array([100.0, 1000.0, 10.0])
        keep, n = collision_scan(t, lat)
        assert keep.tolist() == [True, False, True]

    def test_chain_of_collisions(self):
        t = np.array([0.0, 10.0, 20.0, 30.0, 400.0])
        lat = np.array([100.0, 5.0, 5.0, 5.0, 5.0])
        keep, n = collision_scan(t, lat)
        assert n == 3
        assert keep.tolist() == [True, False, False, False, True]

    def test_empty(self):
        keep, n = collision_scan(np.zeros(0), np.zeros(0))
        assert keep.size == 0 and n == 0


def make_source(n=200_000, cpi=0.5, dram_frac=0.0):
    rng = np.random.default_rng(7)
    kinds = rng.choice(
        [int(OpKind.LOAD), int(OpKind.STORE), int(OpKind.OTHER)],
        size=n, p=[0.4, 0.1, 0.5],
    ).astype(np.uint8)
    addrs = rng.integers(1, 1 << 40, n, dtype=np.uint64)
    levels = np.where(
        rng.random(n) < dram_frac, int(MemLevel.DRAM), int(MemLevel.L1)
    ).astype(np.uint8)
    levels[(kinds != OpKind.LOAD) & (kinds != OpKind.STORE)] = 0
    return TraceOpSource(kinds, addrs, levels, cpi=cpi)


class TestSpeSampler:
    def sampler(self, ampere, period=1000, config=None, track=True):
        return SpeSampler(
            period,
            config or SpeConfig.loads_and_stores(),
            PipelineModel(ampere),
            GenericTimer(ampere.frequency_hz),
            np.random.default_rng(3),
            track_collisions=track,
        )

    def test_only_mem_ops_kept(self, ampere):
        out = self.sampler(ampere).sample_stream(make_source())
        assert set(np.unique(out.batch.kind)) <= {int(OpKind.LOAD), int(OpKind.STORE)}

    def test_filter_counts_add_up(self, ampere):
        out = self.sampler(ampere).sample_stream(make_source())
        assert out.n_selected == out.n_collisions + out.n_filtered + out.n_kept

    def test_loads_only_config(self, ampere):
        out = self.sampler(ampere, config=SpeConfig.loads_only()).sample_stream(
            make_source()
        )
        assert (out.batch.kind == OpKind.LOAD).all()

    def test_min_latency_filter(self, ampere):
        cfg = SpeConfig(loads=True, stores=True, min_latency=50)
        out = self.sampler(ampere, config=cfg).sample_stream(
            make_source(dram_frac=0.5)
        )
        assert (out.batch.total_lat >= 50).all()

    def test_collisions_appear_with_slow_dram_and_small_gap(self, ampere):
        src = make_source(cpi=0.1, dram_frac=0.5)
        out = self.sampler(ampere, period=1000).sample_stream(src)
        assert out.n_collisions > 0

    def test_no_collisions_when_gap_large(self, ampere):
        src = make_source(cpi=10.0, dram_frac=0.5)
        out = self.sampler(ampere, period=1000).sample_stream(src)
        assert out.n_collisions == 0

    def test_track_collisions_false(self, ampere):
        src = make_source(cpi=0.1, dram_frac=0.5)
        out = self.sampler(ampere, track=False).sample_stream(src)
        assert out.n_collisions == 0

    def test_timestamps_positive_monotone(self, ampere):
        out = self.sampler(ampere).sample_stream(make_source())
        assert (out.batch.ts >= 1).all()
        assert (np.diff(out.batch.ts.astype(np.int64)) >= 0).all()

    def test_start_cycle_offsets_timestamps(self, ampere):
        s1 = self.sampler(ampere)
        s2 = self.sampler(ampere)
        o1 = s1.sample_stream(make_source(), start_cycle=0.0)
        o2 = s2.sample_stream(make_source(), start_cycle=3e9)
        assert o2.batch.ts.min() > o1.batch.ts.max()

    def test_addresses_nonzero(self, ampere):
        out = self.sampler(ampere).sample_stream(make_source())
        assert (out.batch.addr != 0).all()

    def test_empty_source(self, ampere):
        src = TraceOpSource(
            np.zeros(0, np.uint8), np.zeros(0, np.uint64), np.zeros(0, np.uint8), 1.0
        )
        out = self.sampler(ampere).sample_stream(src)
        assert out.n_selected == 0 and out.n_kept == 0

    def test_bad_period(self, ampere):
        with pytest.raises(SpeError):
            self.sampler(ampere, period=0)
