"""End-to-end NMO profiler tests."""

import numpy as np
import pytest

import repro.nmo.profiler as profiler_module
from repro.nmo.backends import ArmSpeBackend
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler, sampling_accuracy
from repro.errors import NmoError
from repro.spe.config import SpeConfig
from repro.spe.driver import SpeDriver
from repro.spe.refpath import reference_path
from repro.workloads.registry import make_workload
from repro.workloads.stream import StreamWorkload
from repro.workloads.bfs import BfsWorkload
from tests.spe.test_golden_parity_profile import assert_profiles_identical


def stream(machine, threads=8, elems=1 << 18):
    return StreamWorkload(machine, n_threads=threads, n_elems=elems, iterations=3)


def run(machine, w=None, period=2048, mode=NmoMode.SAMPLING, **kw):
    w = w or stream(machine)
    settings = NmoSettings(enable=True, mode=mode, period=period, **kw)
    return NmoProfiler(w, settings, seed=0).run()


class TestSamplingAccuracyFn:
    def test_perfect(self):
        assert sampling_accuracy(10_000, 10, 1000) == 1.0

    def test_undershoot(self):
        assert sampling_accuracy(10_000, 5, 1000) == pytest.approx(0.5)

    def test_overshoot_symmetric(self):
        assert sampling_accuracy(10_000, 15, 1000) == pytest.approx(0.5)

    def test_clamped_at_zero(self):
        assert sampling_accuracy(100, 1000, 1000) == 0.0

    def test_validation(self):
        with pytest.raises(NmoError):
            sampling_accuracy(0, 1, 1)
        with pytest.raises(NmoError):
            sampling_accuracy(10, -1, 1)
        with pytest.raises(NmoError):
            sampling_accuracy(10, 1, 0)


class TestBaseline:
    def test_mem_counted_exact(self, ampere):
        w = stream(ampere)
        base = NmoProfiler(w, NmoSettings()).run_baseline()
        assert base.mem_counted == w.total_mem_ops()

    def test_wall_time_matches_phases(self, ampere):
        w = stream(ampere)
        base = NmoProfiler(w, NmoSettings()).run_baseline()
        assert base.wall_cycles == pytest.approx(w.baseline_cycles())

    def test_flops_counted(self, ampere):
        w = stream(ampere)
        base = NmoProfiler(w, NmoSettings()).run_baseline()
        assert base.total_flops == w.total_flops()


class TestSamplingRun:
    def test_samples_estimate_mem_ops(self, ampere):
        r = run(ampere)
        est = r.samples_processed * r.settings.period
        assert est == pytest.approx(r.mem_counted, rel=0.15)

    def test_accuracy_reasonable(self, ampere):
        r = run(ampere)
        assert 0.8 < r.accuracy <= 1.0

    def test_overhead_positive_and_small(self, ampere):
        r = run(ampere)
        assert 0.0 < r.time_overhead < 0.2

    def test_profiled_slower_than_baseline(self, ampere):
        r = run(ampere)
        assert r.profiled_cycles > r.baseline_cycles

    def test_smaller_period_more_samples(self, ampere):
        r1 = run(ampere, period=1024)
        r2 = run(ampere, w=stream(ampere), period=8192)
        assert r1.samples_processed > 4 * r2.samples_processed

    def test_per_thread_stats_populated(self, ampere):
        r = run(ampere)
        assert len(r.per_thread) == 8
        assert all(s.n_selected > 0 for s in r.per_thread)

    def test_sample_arrays_aligned(self, ampere):
        r = run(ampere)
        assert len(r.batch) == r.sample_cores.shape[0] == r.sample_times_s.shape[0]

    def test_sample_times_within_run(self, ampere):
        r = run(ampere)
        dur = r.profiled_cycles / r.settings.period  # loose upper bound
        assert (r.sample_times_s >= 0).all()
        assert r.sample_times_s.max() <= r.profiled_cycles / 3e9 * 1.01

    def test_address_tags_registered(self, ampere):
        r = run(ampere)
        assert r.annotations.tag_names() == ["a", "b", "c"]

    def test_region_spans_cover_phases(self, ampere):
        r = run(ampere)
        tags = {s.tag for s in r.annotations.spans}
        assert {"init", "triad"} <= tags

    def test_phase_spans_recorded(self, ampere):
        r = run(ampere)
        assert len(r.phase_spans) == 4  # init + 3 triads

    def test_deterministic_given_seed(self, ampere):
        r1 = run(ampere)
        r2 = run(ampere)
        assert r1.samples_processed == r2.samples_processed
        assert r1.accuracy == r2.accuracy

    def test_different_seeds_differ(self, ampere):
        w1, w2 = stream(ampere), stream(ampere)
        s = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=2048)
        r1 = NmoProfiler(w1, s, seed=0).run()
        r2 = NmoProfiler(w2, s, seed=1).run()
        assert r1.samples_processed != r2.samples_processed


class TestReprofile:
    """A run leaves no perf event open and no clock behind, so profiling
    one workload again gives a fresh workload's result."""

    def test_three_runs_on_one_workload(self, ampere):
        s = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=2048)
        fresh = NmoProfiler(stream(ampere, threads=4), s, seed=0).run()
        w = stream(ampere, threads=4)
        for _ in range(3):
            r = NmoProfiler(w, s, seed=0).run()
            assert w.process.perf.events == {}
            for col in r.batch._COLUMNS:
                assert np.array_equal(
                    getattr(r.batch, col), getattr(fresh.batch, col)
                ), col
            assert np.array_equal(r.sample_cores, fresh.sample_cores)
            assert np.array_equal(r.sample_times_s, fresh.sample_times_s)
            assert r.time_overhead == fresh.time_overhead
            assert r.profiled_cycles == fresh.profiled_cycles

    def test_events_closed_when_a_run_fails(self, ampere, monkeypatch):
        w = stream(ampere, threads=4)
        s = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=2048)

        def boom(*a, **k):
            raise RuntimeError("phase step failed")

        monkeypatch.setattr("repro.nmo.profiler.sample_phase", boom)
        with pytest.raises(RuntimeError):
            NmoProfiler(w, s, seed=0).run()
        assert w.process.perf.events == {}


class TestModes:
    def test_disabled_collects_nothing(self, ampere):
        r = run(ampere, mode=NmoMode.NONE, period=0)
        assert r.samples_processed == 0
        assert r.time_overhead == 0.0

    def test_track_rss_produces_series(self, ampere):
        w = stream(ampere)
        settings = NmoSettings(enable=False, track_rss=True)
        r = NmoProfiler(w, settings).run()
        assert r.rss_series is not None
        t, v = r.rss_series
        assert v[-1] > 0

    def test_bandwidth_mode_produces_series(self, ampere):
        r = run(ampere, mode=NmoMode.BANDWIDTH, period=0)
        assert r.bw_series is not None
        _, v = r.bw_series
        assert v.max() > 0

    def test_full_mode_has_everything(self, ampere):
        w = stream(ampere)
        settings = NmoSettings(
            enable=True, mode=NmoMode.FULL, period=2048, track_rss=True
        )
        r = NmoProfiler(w, settings).run()
        assert r.samples_processed > 0
        assert r.bw_series is not None
        assert r.rss_series is not None


class TestTraceExport:
    def test_to_trace_round_trip(self, ampere, tmp_path):
        from repro.nmo.tracefile import read_trace, write_trace

        r = run(ampere)
        trace = r.to_trace()
        write_trace(trace, tmp_path)
        back = read_trace("nmo", tmp_path)
        assert back.n_samples == r.samples_processed
        assert back.meta["workload"] == "stream"
        assert back.meta["accuracy"] == pytest.approx(r.accuracy)


class TestPebsPortability:
    """The same profiler runs against the x86 PEBS backend (§III)."""

    def test_x86_run(self, x86):
        w = StreamWorkload(x86, n_threads=4, n_elems=1 << 16, iterations=2)
        settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=2048)
        r = NmoProfiler(w, settings).run()
        assert r.samples_processed > 0
        assert r.collisions == 0  # PEBS backend does not collide
        assert r.accuracy > 0.8


class TestRecordPath:
    """A core pays for its samples: the driver is fed once per (phase,
    core) pair that kept or collided with a sample, and a profile is
    the one the scalar reference path produces."""

    SETTINGS = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=256)

    def profile(self, machine, config):
        w = make_workload("cfd", machine, n_threads=32, scale=1 / 8192)
        return NmoProfiler(
            w, self.SETTINGS, seed=3, backend=ArmSpeBackend(config)
        ).run()

    @pytest.mark.parametrize("config", [
        SpeConfig.loads_and_stores(), SpeConfig(loads=False, stores=True)
    ], ids=["loads_and_stores", "stores_only"])
    def test_one_feed_per_pair_with_a_kept_or_collided_sample(
        self, ampere, monkeypatch, config
    ):
        steps, fed = [], []
        step, feed = profiler_module.sample_phase, SpeDriver.feed
        monkeypatch.setattr(
            profiler_module, "sample_phase",
            lambda *a, **k: steps.append(step(*a, **k)) or steps[-1],
        )
        monkeypatch.setattr(
            SpeDriver, "feed", lambda drv, out: fed.append(out) or feed(drv, out)
        )
        got = self.profile(ampere, config)
        outs = [out for phase in steps for out in phase]
        want = [out for out in outs if out.n_kept or out.n_collisions]
        assert len(fed) == len(want)
        assert all(a is b for a, b in zip(fed, want))
        assert any(not (o.n_kept or o.n_collisions) for o in outs)
        if not config.loads:
            # the filter drops every load the tracker kept, so a core
            # can collide without keeping a sample
            assert any(o.n_collisions and not o.n_kept for o in outs)
        # a core fed nothing still counts its selections
        assert sum(st.n_selected for st in got.per_thread) == sum(
            o.n_selected for o in outs
        )
        monkeypatch.undo()
        with reference_path():
            ref = self.profile(ampere, config)
        assert got.n_samples > 0 and got.collisions > 0
        assert_profiles_identical(got, ref)

    @pytest.mark.parametrize("seed", range(10))
    def test_period_one_selects_every_op(self, ampere, seed):
        w = StreamWorkload(ampere, n_threads=1, n_elems=1 << 10, iterations=3)
        settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=1)
        r = NmoProfiler(w, settings, seed=seed).run()
        assert r.per_thread[0].n_selected == w.total_ops()
