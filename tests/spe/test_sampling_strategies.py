"""Sampling-strategy zoo: golden parity, cache-key stability, errors.

The strategy refactor extracted the original periodic sampler into
:mod:`repro.spe.strategies` behind a ``strategy`` field on
:class:`SpeConfig`.  These tests pin the compatibility contract:

* the default config and an explicit ``strategy="periodic"`` produce
  **byte-identical** :class:`SamplerOutput` and full profiler results
  (the pre-zoo behaviour, bit for bit),
* a defaulted ``strategy`` stays out of :func:`canonical_config`, so
  every pre-zoo cache key is unchanged; a non-default strategy changes
  the canonical form,
* the non-positive-period error message is one string across
  ``sample_positions``, ``SpeSampler``, and every strategy, and
  unknown strategy names fail with the registry-style ``known: ...``
  listing everywhere a name is accepted.
"""

import dataclasses

import numpy as np
import pytest

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import OpKind
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError
from repro.machine.hierarchy import MemLevel
from repro.machine.tiers import page_hotness
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.orchestrate.cache import canonical_config
from repro.spe.config import SpeConfig
from repro.spe.sampler import SpeSampler, TraceOpSource, sample_positions
from repro.spe.strategies import (
    HASH_OVERSAMPLE,
    STRATEGIES,
    STRATEGY_NAMES,
    _renewal_positions,
    check_period,
    get_strategy,
    xorshift_hash,
)
from repro.workloads.stream import StreamWorkload

KNOWN_LISTING = ", ".join(sorted(STRATEGIES))


def trace(n, seed, cpi=1.0):
    rng = np.random.default_rng(seed)
    kinds = np.full(n, OpKind.LOAD, np.uint8)
    addrs = rng.integers(1, 1 << 40, n, dtype=np.uint64)
    levels = np.full(n, int(MemLevel.L1), np.uint8)
    return TraceOpSource(kinds, addrs, levels, cpi=cpi)


def sampled(machine, n, seed, config, period=100):
    rng = np.random.default_rng(seed)
    return SpeSampler(
        period, config, PipelineModel(machine),
        GenericTimer(machine.frequency_hz), rng,
    ).sample_stream(trace(n, seed))


def assert_outputs_identical(a, b):
    for f in ("n_selected", "n_collisions", "n_filtered", "duration_cycles"):
        assert getattr(a, f) == getattr(b, f), f
    assert (a.arrival_cycles == b.arrival_cycles).all()
    for c in a.batch._COLUMNS:
        assert (getattr(a.batch, c) == getattr(b.batch, c)).all(), c


class TestPeriodicGoldenParity:
    """strategy="periodic" is the old sampler, byte for byte."""

    @pytest.mark.parametrize("jitter", [True, False])
    @pytest.mark.parametrize("n", [0, 1, 999, 120_000])
    def test_sampler_output_identical_to_default(self, ampere, n, jitter):
        default = SpeConfig(loads=True, stores=True, jitter=jitter)
        explicit = dataclasses.replace(default, strategy="periodic")
        assert_outputs_identical(
            sampled(ampere, n, seed=n + 1, config=default),
            sampled(ampere, n, seed=n + 1, config=explicit),
        )

    def test_multi_phase_carry_identical(self, ampere):
        outs = []
        for config in (
            SpeConfig.loads_and_stores(),
            dataclasses.replace(SpeConfig.loads_and_stores(),
                                strategy="periodic"),
        ):
            rng = np.random.default_rng(7)
            sampler = SpeSampler(
                512, config, PipelineModel(ampere),
                GenericTimer(ampere.frequency_hz), rng,
            )
            outs.append([sampler.sample_stream(trace(n, 7))
                         for n in (30_000, 100, 4_567)])
        for a, b in zip(*outs):
            assert_outputs_identical(a, b)

    def test_full_profile_identical_to_default(self, tiny):
        results = []
        for strategy in (None, "periodic"):
            w = StreamWorkload(tiny, n_threads=2, n_elems=1 << 14,
                               iterations=2)
            prof = NmoProfiler(
                w,
                NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=512),
                seed=0,
            )
            if strategy is not None:
                prof.backend.config = dataclasses.replace(
                    prof.backend.config, strategy=strategy
                )
            results.append(prof.run())
        a, b = results
        assert a.samples_processed == b.samples_processed
        assert a.accuracy == b.accuracy
        assert a.time_overhead == b.time_overhead
        assert a.collisions == b.collisions
        for c in a.batch._COLUMNS:
            assert (getattr(a.batch, c) == getattr(b.batch, c)).all(), c

    def test_periodic_strategy_delegates_to_sample_positions(self):
        src = trace(50_000, 3)
        pos_s, carry_s = get_strategy("periodic").sample(
            src, 512, True, np.random.default_rng(3), None
        )
        pos_r, carry_r = sample_positions(
            50_000, 512, True, np.random.default_rng(3), None
        )
        assert (pos_s == pos_r).all()
        assert carry_s == carry_r


class TestCacheKeyStability:
    """A defaulted strategy is invisible to the cache layer."""

    def test_default_config_has_no_strategy_key(self):
        assert "strategy" not in canonical_config(SpeConfig.loads_and_stores())
        assert "strategy" not in canonical_config(SpeConfig())

    def test_explicit_strategy_enters_canonical_form(self):
        cfg = dataclasses.replace(
            SpeConfig.loads_and_stores(), strategy="poisson"
        )
        assert canonical_config(cfg)["strategy"] == "poisson"

    def test_default_canonical_form_is_pre_zoo(self):
        # exactly the keys a pre-zoo cache entry was hashed over
        cc = canonical_config(SpeConfig.loads_and_stores())
        assert set(cc) == {
            "loads", "stores", "branches", "jitter", "min_latency",
            "physical_addresses", "timestamps",
        }

    def test_encode_ignores_strategy(self):
        base = SpeConfig.loads_and_stores()
        zoo = dataclasses.replace(base, strategy="page_hash")
        assert base.encode() == zoo.encode()
        assert SpeConfig.decode(zoo.encode()).strategy is None


class TestStrategyOutputs:
    """Cheap deterministic invariants for every registered strategy."""

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_positions_strictly_increasing_in_range(self, name):
        src = trace(80_000, 11)
        pos, carry = STRATEGIES[name].sample(
            src, 256, False, np.random.default_rng(11), None
        )
        assert carry >= 1
        assert pos.dtype == np.int64
        if pos.size:
            assert pos[0] >= 0 and pos[-1] < 80_000
            assert (np.diff(pos) > 0).all()

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_seeded_runs_are_identical(self, name):
        src = trace(40_000, 5)
        a = STRATEGIES[name].sample(src, 512, True,
                                    np.random.default_rng(5), None)
        b = STRATEGIES[name].sample(src, 512, True,
                                    np.random.default_rng(5), None)
        assert (a[0] == b[0]).all()
        assert a[1] == b[1]

    @pytest.mark.parametrize("name", ["addr_hash", "page_hash"])
    def test_hash_strategies_are_chunk_invariant(self, name):
        # RNG-free selection: splitting the stream moves nothing
        src = trace(60_000, 9)
        whole, _ = STRATEGIES[name].sample(
            src, 512, False, np.random.default_rng(9), None
        )
        parts, carry = [], None
        for lo, hi in ((0, 17_000), (17_000, 17_001), (17_001, 60_000)):
            sub = TraceOpSource(
                src._kinds[lo:hi], src._addrs[lo:hi], src._levels[lo:hi],
                cpi=src.cpi,
            )
            pos, carry = STRATEGIES[name].sample(
                sub, 512, False, np.random.default_rng(9), carry
            )
            parts.append(pos + lo)
        assert (np.concatenate(parts) == whole).all()

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_sampler_routes_to_named_strategy(self, ampere, name):
        cfg = dataclasses.replace(SpeConfig.loads_and_stores(), strategy=name)
        out = sampled(ampere, 50_000, seed=1, config=cfg, period=512)
        src = trace(50_000, 1)
        expected, _ = STRATEGIES[name].sample(
            src, 512, cfg.jitter, np.random.default_rng(1), None
        )
        # collisions only drop samples, never move them
        assert out.n_selected == expected.size

    def test_xorshift_hash_is_pure(self):
        vals = np.arange(1000, dtype=np.uint64) * 0x9E3779B9
        a, b = xorshift_hash(vals), xorshift_hash(vals)
        assert a.dtype == np.uint64
        assert (a == b).all()
        # a finaliser should not collapse distinct keys
        assert len(np.unique(a % 8)) == 8

    def test_hash_strategies_oversample_grid(self):
        src = trace(100_000, 2)
        pos, _ = STRATEGIES["page_hash"].sample(
            src, 4096, False, np.random.default_rng(2), None
        )
        gap = 4096 // HASH_OVERSAMPLE
        # every sample sits on the arithmetic candidate grid
        assert (np.mod(pos + 1, gap) == gap - 1).all() or (
            np.mod(pos - (gap - 1), gap) == 0
        ).all()


def _mask_trim_renewal(n_ops, draw, est_gap, carry):
    """``_renewal_positions`` as it was when it trimmed with two boolean
    masks, kept to pin the binary-search trim to it."""
    first = int(carry) if carry is not None else int(draw(1)[0])
    if n_ops == 0:
        return np.zeros(0, dtype=np.int64), first
    if first > n_ops:
        return np.zeros(0, dtype=np.int64), first - n_ops
    n_est = int((n_ops - first) // max(1, est_gap)) + 2
    chunks = [first - 1 + np.concatenate([[0], np.cumsum(draw(n_est))])]
    last = int(chunks[-1][-1])
    while last < n_ops - 1:
        more = last + np.cumsum(draw(n_est))
        chunks.append(more)
        last = int(more[-1])
    pos = chunks[0] if len(chunks) == 1 else np.concatenate(chunks)
    past = pos[pos >= n_ops]
    residue = int(past[0]) - (n_ops - 1) if past.size else int(draw(1)[0])
    return pos[pos < n_ops], residue


def _counted(draw):
    """``draw`` that also records the size of each call in ``.sizes``."""
    def wrapped(k):
        wrapped.sizes.append(k)
        return draw(k)
    wrapped.sizes = []
    return wrapped


class TestRenewalTrim:
    """The trim finds the stream's end by one binary search; positions,
    residue and RNG state equal the two-mask trim's."""

    @staticmethod
    def check(n_ops, make_draw, est_gap, carry, seed):
        rng_got, rng_want = (np.random.default_rng(seed) for _ in range(2))
        draw = _counted(make_draw(rng_got))
        got = _renewal_positions(n_ops, draw, est_gap, carry)
        want = _mask_trim_renewal(n_ops, make_draw(rng_want), est_gap, carry)
        assert got[0].dtype == np.int64
        assert got[0].tolist() == want[0].tolist()
        assert got[1] == want[1]
        assert rng_got.bit_generator.state == rng_want.bit_generator.state
        # every call but a lone first gap or residue draws one chunk
        return got[0], sum(k > 1 for k in draw.sizes) - 1

    @pytest.mark.parametrize("n_ops", [1, 2, 3, 64, 5000])
    @pytest.mark.parametrize("carry", [1, 2, 7])
    def test_period_one_repeats_positions(self, n_ops, carry):
        # a reload of 1 - U{0, 1} has zero gaps, so the renewal trim
        # sees repeated positions (the drawn sequence only never
        # decreases); sample_positions clamps its window to the period,
        # so at period 1 it never draws such a gap
        def make_draw(rng):
            return lambda k: 1 - rng.integers(0, 2, size=k, dtype=np.int64)

        repeats = 0
        for seed in range(5):
            pos, _ = self.check(n_ops, make_draw, -1, carry, seed)
            repeats += int((np.diff(pos) == 0).sum())
            rng = np.random.default_rng(seed)
            state = rng.bit_generator.state
            got, residue = sample_positions(n_ops, 1, False, rng, carry)
            # every op from the carry on is selected, and no bits drawn
            assert got.tolist() == list(range(carry - 1, n_ops))
            assert residue == (1 if carry <= n_ops else carry - n_ops)
            assert rng.bit_generator.state == state
        if n_ops > carry + 8:
            assert repeats

    @pytest.mark.parametrize("carry", [None, 3, 900])
    def test_poisson_top_up(self, carry):
        # PoissonStrategy's draw with its own gap estimate tops up on
        # some seeds; an estimate 8x too long tops up on every one
        def make_draw(rng):
            def draw(k):
                gaps = np.rint(rng.exponential(128.0, size=k))
                return np.maximum(gaps, 1.0).astype(np.int64)
            return draw

        topped = 0
        for seed in range(20):
            _, top_ups = self.check(20_000, make_draw, 128, carry, seed)
            topped += top_ups > 0
            _, top_ups = self.check(20_000, make_draw, 1024, carry, seed)
            assert top_ups > 2
        assert 0 < topped < 20

    def test_stream_shorter_than_the_carry(self):
        def make_draw(rng):
            return lambda k: 4096 - rng.integers(0, 256, size=k, dtype=np.int64)

        for n_ops in (0, 1, 4095, 4096, 4097):
            self.check(n_ops, make_draw, 3840, 4096, 0)
            self.check(n_ops, make_draw, 3840, None, 0)


class TestPageHotnessWeighting:
    def make_space(self, tiny):
        w = StreamWorkload(tiny, n_threads=2, n_elems=1 << 14, iterations=1)
        return w.process.address_space

    def test_no_strategy_keeps_int_counts(self, tiny):
        aspace = self.make_space(tiny)
        addrs = np.array([aspace.mappings()[0].start + 8] * 5, dtype=np.uint64)
        counts = page_hotness(aspace, addrs)
        assert counts.dtype == np.int64
        assert counts.sum() == 5

    def test_periodic_weighting_is_identity(self, tiny):
        aspace = self.make_space(tiny)
        addrs = np.array([aspace.mappings()[0].start + 8] * 5, dtype=np.uint64)
        plain = page_hotness(aspace, addrs)
        weighted = page_hotness(aspace, addrs, strategy="periodic")
        assert weighted.dtype == np.float64
        assert (weighted == plain.astype(np.float64)).all()

    def test_hash_weighting_matches_strategy_weights(self, tiny):
        from repro.machine.tiers import mapped_page_ids

        aspace = self.make_space(tiny)
        base = aspace.mappings()[0].start
        page = 1 << aspace.page_shift
        addrs = np.array([base + i * page for i in range(8)], dtype=np.uint64)
        plain = page_hotness(aspace, addrs).astype(np.float64)
        for name in ("addr_hash", "page_hash", "hybrid"):
            weighted = page_hotness(aspace, addrs, strategy=name)
            pages = mapped_page_ids(aspace)
            expected = plain * STRATEGIES[name].page_sample_weight(
                pages << np.uint64(aspace.page_shift)
            )
            assert weighted.dtype == np.float64
            assert (weighted == expected).all(), name
            # inverse-probability correction only ever shrinks a count
            assert (weighted <= plain).all(), name


class TestUnifiedErrors:
    """Satellite fix: one period message, one unknown-name idiom."""

    PERIOD_MSG = "sampling period must be positive, got 0"

    def test_check_period_message(self):
        with pytest.raises(SpeError, match=self.PERIOD_MSG):
            check_period(0)
        with pytest.raises(SpeError,
                           match="sampling period must be positive, got -3"):
            check_period(-3)

    def test_sample_positions_uses_same_message(self):
        with pytest.raises(SpeError, match=self.PERIOD_MSG):
            sample_positions(100, 0, False, np.random.default_rng(0))

    def test_sampler_uses_same_message(self, ampere):
        with pytest.raises(SpeError, match=self.PERIOD_MSG):
            SpeSampler(
                0, SpeConfig.loads_and_stores(), PipelineModel(ampere),
                GenericTimer(ampere.frequency_hz), np.random.default_rng(0),
            )

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_every_strategy_uses_same_message(self, name):
        with pytest.raises(SpeError, match=self.PERIOD_MSG):
            STRATEGIES[name].sample(
                trace(10, 0), 0, False, np.random.default_rng(0), None
            )

    def test_get_strategy_unknown_name_lists_known(self):
        with pytest.raises(
            SpeError,
            match=f"unknown sampling strategy 'bogus'; known: {KNOWN_LISTING}",
        ):
            get_strategy("bogus")

    def test_spe_config_validates_strategy(self):
        with pytest.raises(SpeError, match="unknown sampling strategy"):
            SpeConfig(strategy="bogus")

    def test_page_hotness_validates_strategy(self, tiny):
        aspace = self.tiny_space(tiny)
        with pytest.raises(SpeError, match="unknown sampling strategy"):
            page_hotness(aspace, np.zeros(0, np.uint64), strategy="bogus")

    @staticmethod
    def tiny_space(tiny):
        w = StreamWorkload(tiny, n_threads=1, n_elems=1 << 12, iterations=1)
        return w.process.address_space

    def test_registry_is_sorted_in_message(self):
        # the listing is sorted, not registration order
        assert KNOWN_LISTING == "addr_hash, hybrid, page_hash, periodic, poisson"
