"""Parallel/cached experiment drivers reproduce the serial results.

Small configurations keep this fast.  Full-CLI byte equivalence
(cached vs computed output of a whole exhibit) is exercised by the CI
cache-smoke job, not here.
"""

import pytest

from repro.evalharness.experiments import (
    colo_interference,
    fig7_samples_vs_period,
    fig9_aux_buffer,
    fig10_fig11_threads,
)
from repro.orchestrate import ResultCache

FIG7_KW = dict(periods=(2048, 8192), trials=2, workloads=("bfs",), scale=0.2)
COLO_KW = dict(max_corunners=2, scale=0.002, period=65536, n_threads=4)


class TestParallelEquivalence:
    def test_fig7_parallel_matches_serial(self):
        serial = fig7_samples_vs_period(**FIG7_KW, workers=1)
        parallel = fig7_samples_vs_period(**FIG7_KW, workers=3)
        assert serial == parallel

    def test_fig9_parallel_matches_serial(self):
        kw = dict(aux_pages=(2, 16), scale=0.1)
        assert fig9_aux_buffer(**kw) == fig9_aux_buffer(**kw, workers=2)

    def test_fig10_parallel_matches_serial(self):
        kw = dict(thread_counts=(2, 8), scale=0.25)
        assert fig10_fig11_threads(**kw) == fig10_fig11_threads(
            **kw, workers=2
        )

    def test_colo_parallel_matches_serial(self):
        # acceptance: --workers N byte-identical to the serial run
        serial = colo_interference(**COLO_KW, workers=1)
        parallel = colo_interference(**COLO_KW, workers=2)
        assert serial == parallel

    def test_deterministic_seeding_across_repeats(self):
        # same grid, workers>1, twice: scheduling must not leak into seeds
        a = fig7_samples_vs_period(**FIG7_KW, workers=3)
        b = fig7_samples_vs_period(**FIG7_KW, workers=2)
        assert a == b
        pts = a["bfs"]
        assert all(len(p.samples_trials) == 2 for p in pts)


class TestCachedExperiments:
    def test_second_run_hits_and_matches(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = fig7_samples_vs_period(**FIG7_KW, cache=cache)
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals == {
            "hits": 0,
            "misses": 4,
            "stores": 4,
            "deser_ns": 0,
        }

        second = fig7_samples_vs_period(
            **FIG7_KW, cache=ResultCache(tmp_path)
        )
        assert first == second
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 4
        assert totals["stores"] == 4

    def test_trials_increase_reuses_prefix(self, tmp_path):
        fig7_samples_vs_period(**FIG7_KW, cache=ResultCache(tmp_path))
        kw = dict(FIG7_KW, trials=3)
        fig7_samples_vs_period(**kw, cache=ResultCache(tmp_path))
        totals = ResultCache(tmp_path).persistent_stats()
        # 2 periods x trials 0,1 reused; only trial seed 2 recomputed
        assert totals["hits"] == 4
        assert totals["stores"] == 4 + 2

    def test_scale_change_invalidates(self, tmp_path):
        fig7_samples_vs_period(**FIG7_KW, cache=ResultCache(tmp_path))
        kw = dict(FIG7_KW, scale=0.25)
        runner_cache = ResultCache(tmp_path)
        fig7_samples_vs_period(**kw, cache=runner_cache)
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 0

    def test_machine_spec_change_invalidates(self, tmp_path):
        # same machine *name*, different geometry: must not share entries
        from dataclasses import replace

        from repro.machine.spec import small_test_machine

        m1 = small_test_machine()
        m2 = replace(m1, n_cores=m1.n_cores * 2)
        assert m1.name == m2.name
        kw = dict(thread_counts=(2,), scale=0.25)
        fig10_fig11_threads(machine=m1, **kw, cache=ResultCache(tmp_path))
        fig10_fig11_threads(machine=m2, **kw, cache=ResultCache(tmp_path))
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 0
        assert totals["stores"] == 2

    def test_cached_fig9_roundtrip(self, tmp_path):
        kw = dict(aux_pages=(2, 16), scale=0.1)
        a = fig9_aux_buffer(**kw, cache=ResultCache(tmp_path))
        b = fig9_aux_buffer(**kw, cache=ResultCache(tmp_path))
        assert a == b
        assert ResultCache(tmp_path).persistent_stats()["hits"] == 2

    def test_cached_colo_second_run_full_hit(self, tmp_path):
        # acceptance: cached rerun identical to the uncached serial run
        uncached = colo_interference(**COLO_KW)
        a = colo_interference(**COLO_KW, cache=ResultCache(tmp_path))
        b = colo_interference(**COLO_KW, cache=ResultCache(tmp_path), workers=2)
        assert uncached == a == b
        totals = ResultCache(tmp_path).persistent_stats()
        # 3 scenarios (stream, stream x2, stream+pagerank): all hit twice
        assert (totals["hits"], totals["misses"], totals["stores"]) == (3, 3, 3)
        # every hit paid for its deserialization
        assert totals["deser_ns"] > 0
