"""Unit tests for the sampling-bias metrics (repro.analysis.sampling)."""

import numpy as np
import pytest

from repro.analysis.sampling import (
    SamplingBias,
    align_or_raise,
    dead_zones,
    exhaustive_page_hotness,
    hotness_rank_error,
    miss_ratio_error,
    sample_rate_deviation,
    score_sampling,
)
from repro.cpu.ops import OpKind
from repro.errors import AnalysisError
from repro.machine.spec import ampere_altra_max
from repro.machine.tiers import page_hotness
from repro.workloads.base import Phase
from repro.workloads.registry import make_workload, workload_names
from repro.workloads.stream import StreamWorkload


class TestAlignOrRaise:
    def test_casts_to_float64(self):
        t, e = align_or_raise(np.arange(3), np.ones(3, np.int64))
        assert t.dtype == e.dtype == np.float64

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(AnalysisError, match="equal-length 1-D"):
            align_or_raise(np.ones(3), np.ones(4))

    def test_rejects_2d(self):
        with pytest.raises(AnalysisError, match="equal-length 1-D"):
            align_or_raise(np.ones((2, 2)), np.ones((2, 2)))


class TestHotnessRankError:
    def test_identical_ranking_scores_zero(self):
        t = np.array([50.0, 10.0, 5.0, 1.0])
        assert hotness_rank_error(t, t * 3) == 0.0

    def test_reversal_scores_max(self):
        n = 10
        t = np.arange(n, 0, -1, dtype=float)
        # footrule of a full reversal is n^2/2 for even n: error == 1
        assert hotness_rank_error(t, t[::-1].copy()) == 1.0

    def test_cold_pages_are_ignored(self):
        t = np.array([9.0, 3.0, 0.0, 0.0])
        e_good = np.array([2.0, 1.0, 99.0, 0.0])  # cold page misranked
        assert hotness_rank_error(t, e_good) == 0.0

    def test_single_hot_page_scores_zero(self):
        assert hotness_rank_error(np.array([5.0, 0.0]),
                                  np.array([0.0, 7.0])) == 0.0

    def test_partial_error_between_bounds(self):
        t = np.array([4.0, 3.0, 2.0, 1.0])
        e = np.array([3.0, 4.0, 2.0, 1.0])  # swap the top two
        err = hotness_rank_error(t, e)
        assert 0.0 < err < 1.0


class TestMissRatioError:
    def test_oracle_estimate_scores_zero(self):
        t = np.array([100.0, 10.0, 1.0, 0.0])
        assert miss_ratio_error(t, t) == 0.0

    def test_worst_ranking_charges_lost_traffic(self):
        t = np.array([100.0, 100.0, 1.0, 1.0])
        e = np.array([0.0, 0.0, 5.0, 5.0])  # puts cold pages near
        err = miss_ratio_error(t, e, near_fraction=0.5)
        # oracle near tier captures 200/202; estimate captures 2/202
        assert err == pytest.approx(198 / 202)

    def test_never_negative(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            t = rng.uniform(0, 100, 16)
            e = rng.uniform(0, 100, 16)
            assert miss_ratio_error(t, e) >= 0.0

    def test_empty_and_zero_truth(self):
        assert miss_ratio_error(np.zeros(0), np.zeros(0)) == 0.0
        assert miss_ratio_error(np.zeros(4), np.ones(4)) == 0.0

    def test_bad_near_fraction(self):
        for bad in (0.0, 1.0, -0.5, 2.0):
            with pytest.raises(AnalysisError, match="near_fraction"):
                miss_ratio_error(np.ones(4), np.ones(4), near_fraction=bad)


class TestDeadZones:
    def test_no_dead_pages(self):
        t = np.array([5.0, 3.0, 1.0])
        assert dead_zones(t, t) == (0, 0, 0.0)

    def test_run_lengths_counted_exactly(self):
        t = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])
        e = np.array([1.0, 0.0, 0.0, 9.0, 0.0, 0.0, 0.0])
        count, width, frac = dead_zones(t, e)
        assert count == 2            # pages 1-2 and 4-6
        assert width == 3            # the 4-6 run
        assert frac == pytest.approx((2 + 3 + 5 + 6 + 7) / 28)

    def test_cold_unsampled_pages_are_not_dead(self):
        t = np.array([0.0, 0.0, 4.0])
        e = np.array([0.0, 0.0, 1.0])
        assert dead_zones(t, e) == (0, 0, 0.0)

    def test_leading_and_trailing_runs(self):
        t = np.ones(5)
        e = np.array([0.0, 1.0, 1.0, 1.0, 0.0])
        count, width, frac = dead_zones(t, e)
        assert count == 2 and width == 1
        assert frac == pytest.approx(2 / 5)


class TestSampleRateDeviation:
    def test_exact_rate_is_zero(self):
        assert sample_rate_deviation(10, 10_000, 1000) == 0.0

    def test_undershoot(self):
        assert sample_rate_deviation(5, 10_000, 1000) == pytest.approx(0.5)

    def test_overshoot(self):
        assert sample_rate_deviation(15, 10_000, 1000) == pytest.approx(0.5)

    def test_zero_mem_is_zero_by_convention(self):
        assert sample_rate_deviation(5, 0, 1000) == 0.0

    def test_bad_period(self):
        with pytest.raises(AnalysisError, match="period must be positive"):
            sample_rate_deviation(5, 100, 0)


class TestScoreSampling:
    def test_composes_all_metrics(self):
        t = np.array([10.0, 5.0, 2.0, 0.0])
        e = np.array([8.0, 0.0, 3.0, 0.0])
        bias = score_sampling(t, e, samples=17, mem_counted=17_000,
                              period=1000)
        assert isinstance(bias, SamplingBias)
        assert bias.rank_error == hotness_rank_error(t, e)
        assert bias.miss_ratio_error == miss_ratio_error(t, e)
        assert (bias.dead_zone_count, bias.dead_zone_max_width,
                bias.dead_access_fraction) == dead_zones(t, e)
        assert bias.rate_deviation == sample_rate_deviation(17, 17_000, 1000)

    def test_as_row_is_flat_and_complete(self):
        bias = score_sampling(np.ones(3), np.ones(3), samples=1,
                              mem_counted=1000, period=1000)
        row = bias.as_row()
        assert set(row) == {
            "rank_error", "miss_ratio_error", "dead_zone_count",
            "dead_zone_max_width", "dead_access_fraction", "rate_deviation",
        }
        assert all(np.isscalar(v) for v in row.values())


def all_ops_page_hotness(workload) -> np.ndarray:
    """Reference ground truth: every op of every phase x thread stream
    through ``PhaseOpSource.ops_at``, counting its loads and stores."""
    rng = np.random.default_rng(0)
    mem_addrs = []
    for phase in workload.phases:
        for tidx in range(workload.phase_threads(phase)):
            src = workload.op_source(phase, tidx)
            kinds, addrs = src.ops_at(np.arange(src.n_ops), rng)
            mem = (kinds == OpKind.LOAD) | (kinds == OpKind.STORE)
            mem_addrs.append(addrs[mem])
    return page_hotness(
        workload.process.address_space, np.concatenate(mem_addrs)
    )


#: tiny runs of every registered workload at 2+ threads (3 leaves a
#: remainder in the OpenMP chunking)
TINY = {
    "bfs": dict(n_threads=3, scale=1 / 256, repeats=2),
    "cfd": dict(n_threads=2, scale=1 / 8192, iterations=1),
    "inmem_analytics": dict(n_threads=3, scale=1e-6),
    "pagerank": dict(n_threads=2, scale=2e-6),
    "stream": dict(n_threads=3, scale=1 / 8192, iterations=1),
}


class TestExhaustivePageHotness:
    def test_counts_align_with_page_hotness(self, tiny):
        w = StreamWorkload(tiny, n_threads=2, n_elems=1 << 12, iterations=1)
        truth = exhaustive_page_hotness(w)
        direct = page_hotness(w.process.address_space, np.zeros(0, np.uint64))
        assert truth.shape == direct.shape
        assert truth.dtype == np.int64
        assert truth.sum() > 0

    def test_deterministic(self, tiny):
        w = StreamWorkload(tiny, n_threads=2, n_elems=1 << 12, iterations=1)
        a = exhaustive_page_hotness(w)
        b = exhaustive_page_hotness(w)
        assert (a == b).all()

    def test_chunking_does_not_change_counts(self, tiny):
        w = StreamWorkload(tiny, n_threads=3, n_elems=1 << 12, iterations=1)
        whole = exhaustive_page_hotness(w, chunk=1 << 22)
        tiny_chunks = exhaustive_page_hotness(w, chunk=777)
        assert (whole == tiny_chunks).all()

    def test_every_workload_is_covered(self):
        assert set(TINY) == set(workload_names())

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_equals_the_all_ops_enumeration(self, name):
        w = make_workload(name, ampere_altra_max(), **TINY[name])
        truth = exhaustive_page_hotness(w)
        assert truth.dtype == np.int64
        assert np.array_equal(truth, all_ops_page_hotness(w))

    def test_a_group_without_a_memory_op_is_dropped(
        self, tiny, monkeypatch
    ):
        # a slot hash that rounds up to 1.0 puts a group's memory op at
        # slot ``group``, outside the group: both walks must skip it
        mem_slots = Phase.mem_slots

        def rounded_up(self, mem_idx):
            slots = mem_slots(self, mem_idx)
            return np.where(mem_idx % 5 == 3, self.group, slots)

        monkeypatch.setattr(Phase, "mem_slots", rounded_up)
        w = StreamWorkload(tiny, n_threads=3, n_elems=1 << 12, iterations=1)
        truth = exhaustive_page_hotness(w)
        assert np.array_equal(truth, all_ops_page_hotness(w))
        assert truth.sum() == pytest.approx(0.8 * w.total_mem_ops(), rel=0.01)

    def test_matches_mem_op_budget(self, tiny):
        w = StreamWorkload(tiny, n_threads=2, n_elems=1 << 12, iterations=1)
        truth = exhaustive_page_hotness(w)
        budget = sum(
            phase.n_mem_ops * w.phase_threads(phase) for phase in w.phases
        )
        # every op is a load or store in STREAM; all land in mapped pages
        assert truth.sum() <= budget
        assert truth.sum() >= 0.9 * budget

    def test_bad_chunk(self, tiny):
        w = StreamWorkload(tiny, n_threads=1, n_elems=1 << 12, iterations=1)
        with pytest.raises(AnalysisError, match="chunk must be positive"):
            exhaustive_page_hotness(w, chunk=0)
