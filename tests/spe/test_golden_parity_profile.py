"""Golden parity: whole profiles and the on-disk result cache agree
between the vectorized and reference record paths.

The perf rewrite is only admissible if it is invisible end-to-end: a
:class:`ProfileResult` produced by the epoch-planned driver and the
vectorized collision scan must be byte-identical to one produced by the
retained scalar references, and — since :class:`ResultCache` keys carry
no notion of which implementation ran — entries stored by one path must
be exact hits for the other (PR 1-3 caches stay valid).
"""

import numpy as np
import pytest

from repro.machine.spec import ampere_altra_max
from repro.nmo.backends import FixedAuxPagesBackend
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.orchestrate.cache import ResultCache
from repro.scenarios import Session, fig9_spec
from repro.spe.driver import SpeCostModel
from repro.spe.refpath import reference_path
from repro.workloads.stream import StreamWorkload


def fig9_rows(machine, cache, **kw):
    return Session(machine=machine, cache=cache).run(fig9_spec(**kw)).results


def profile(machine, *, aux_pages=None, aux_watermark=None, period=512,
            threads=2, elems=1 << 18, loss=None):
    w = StreamWorkload(machine, n_threads=threads, n_elems=elems, iterations=3)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)
    backend = (
        FixedAuxPagesBackend(aux_pages, aux_watermark=aux_watermark)
        if aux_pages
        else None
    )
    cost = SpeCostModel(service_loss_records=loss) if loss is not None else None
    return NmoProfiler(w, settings, seed=0, backend=backend, cost=cost).run()


def assert_profiles_identical(a, b):
    assert a.workload == b.workload and a.n_threads == b.n_threads
    for f in (
        "mem_counted", "samples_processed", "collisions", "wakeups",
        "truncated", "throttle_events", "throttled_samples", "decode_skipped",
    ):
        assert getattr(a, f) == getattr(b, f), f
    for f in ("accuracy", "baseline_cycles", "profiled_cycles", "time_overhead"):
        assert getattr(a, f) == getattr(b, f), f  # exact, not approx
    for c in a.batch._COLUMNS:
        assert (getattr(a.batch, c) == getattr(b.batch, c)).all(), c
    assert (a.sample_cores == b.sample_cores).all()
    assert (a.sample_times_s == b.sample_times_s).all()
    for sa, sb in zip(a.per_thread, b.per_thread):
        assert sa == sb
    assert a.phase_spans == b.phase_spans


class TestProfileGoldenParity:
    def test_default_session(self, ampere):
        got = profile(ampere)
        with reference_path():
            ref = profile(ampere)
        assert got.n_samples > 0
        assert_profiles_identical(got, ref)

    def test_small_aux_small_watermark(self, ampere):
        # the Fig. 9 interrupt-bound corner: minimum working buffer and
        # an aggressive watermark (thousands of wakeups)
        kw = dict(aux_pages=4, aux_watermark=1024, period=128, loss=0)
        got = profile(ampere, **kw)
        with reference_path():
            ref = profile(ampere, **kw)
        assert got.wakeups > 100
        assert_profiles_identical(got, ref)

    def test_torn_loss_regime(self, ampere):
        kw = dict(aux_pages=4, aux_watermark=8192, period=128, loss=300)
        got = profile(ampere, **kw)
        with reference_path():
            ref = profile(ampere, **kw)
        assert got.truncated > 0
        assert_profiles_identical(got, ref)


class TestCacheParityAcrossPaths:
    def test_reference_entries_hit_vectorized(self, ampere, tmp_path):
        """fig9 trials stored by the reference path are exact cache hits
        for the vectorized path, with byte-equal payloads."""
        kw = dict(aux_pages=(4, 8), period=512, scale=0.02, n_threads=2)
        cache = ResultCache(tmp_path)
        with reference_path():
            ref_rows = fig9_rows(ampere, cache, **kw)
        after_ref = cache.persistent_stats()  # runner folds into stats.json
        assert after_ref["stores"] == len(ref_rows)
        assert len(cache.entries()) == len(ref_rows)

        cache2 = ResultCache(tmp_path)
        vec_rows = fig9_rows(ampere, cache2, **kw)
        after_vec = cache2.persistent_stats()
        assert after_vec["hits"] - after_ref["hits"] == len(vec_rows)
        assert after_vec["misses"] == after_ref["misses"]
        assert after_vec["stores"] == after_ref["stores"]
        assert ref_rows == vec_rows

    def test_vectorized_recompute_equals_reference_payload(self, ampere, tmp_path):
        """Uncached recomputation on the two paths yields equal rows —
        the cache never has to care which implementation filled it."""
        kw = dict(aux_pages=(4,), period=512, scale=0.02, n_threads=2)
        vec_rows = fig9_rows(ampere, None, **kw)
        with reference_path():
            ref_rows = fig9_rows(ampere, None, **kw)
        assert vec_rows == ref_rows

    def test_cache_key_ignores_implementation_path(self, tmp_path):
        cache = ResultCache(tmp_path)
        cfg = {"aux_pages": 4, "period": 512}
        key_vec = cache.key("fig9", cfg, seed=0)
        with reference_path():
            key_ref = cache.key("fig9", cfg, seed=0)
        assert key_vec == key_ref
