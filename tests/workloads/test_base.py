"""Workload framework tests."""

import numpy as np
import pytest

from repro.cpu.ops import OpKind
from repro.errors import WorkloadError
from repro.machine.statcache import AccessClass, StatCacheModel
from repro.workloads.base import Phase, PhaseOpSource, Workload, hash_uniform


def flat_addr(mem_idx, thread):
    return (0x10000 + np.asarray(mem_idx, dtype=np.uint64) * 8).astype(np.uint64)


class ToyWorkload(Workload):
    name = "toy"

    def _build(self):
        self.alloc_object("buf", 1 << 20)
        self.add_phase(
            Phase(
                name="main",
                n_mem_ops=10_000,
                cpi=1.0,
                addr_fn=flat_addr,
                classes=[AccessClass(footprint=1 << 20, stride=8)],
                group=4,
                flops_per_group=2,
                store_fraction=0.25,
                touch={"buf": 1 << 20},
            )
        )
        self.add_phase(
            Phase(
                name="serial",
                n_mem_ops=1_000,
                cpi=2.0,
                addr_fn=flat_addr,
                classes=[AccessClass(footprint=1 << 10, stride=8)],
                parallel=False,
            )
        )


@pytest.fixture
def toy(ampere):
    return ToyWorkload(ampere, n_threads=4)


class TestPhaseValidation:
    def test_bad_group(self):
        with pytest.raises(WorkloadError):
            Phase("x", 1, 1.0, flat_addr, [AccessClass(footprint=1)], group=0)

    def test_flops_must_fit(self):
        with pytest.raises(WorkloadError):
            Phase(
                "x", 1, 1.0, flat_addr, [AccessClass(footprint=1)],
                group=2, flops_per_group=2,
            )

    def test_needs_classes(self):
        with pytest.raises(WorkloadError):
            Phase("x", 1, 1.0, flat_addr, [])

    def test_duration(self):
        p = Phase("x", 100, 2.0, flat_addr, [AccessClass(footprint=1)], group=3)
        assert p.n_ops == 300
        assert p.duration_cycles() == 600.0
        assert p.mem_fraction() == pytest.approx(1 / 3)


class TestWorkloadAggregates:
    def test_total_mem_ops_counts_parallel_threads(self, toy):
        assert toy.total_mem_ops() == 10_000 * 4 + 1_000

    def test_total_flops(self, toy):
        assert toy.total_flops() == 10_000 * 2 * 4

    def test_baseline_cycles_sequential_phases(self, toy):
        # phase 0: 10k mem ops x group 4 x cpi 1; phase 1: 1k x group 2 x cpi 2
        assert toy.baseline_cycles() == 10_000 * 4 * 1.0 + 1_000 * 2 * 2.0

    def test_phase_spans_contiguous(self, toy):
        spans = toy.phase_spans()
        assert spans[0][1] == 0.0
        assert spans[0][2] == pytest.approx(spans[1][1])

    def test_phase_threads(self, toy):
        assert toy.phase_threads(toy.phases[0]) == 4
        assert toy.phase_threads(toy.phases[1]) == 1

    def test_tags(self, toy):
        assert toy.tags() == ["main", "serial"]

    def test_op_source_thread_bounds(self, toy):
        with pytest.raises(WorkloadError):
            toy.op_source(toy.phases[1], 1)  # serial phase: thread 0 only

    def test_foreign_phase_rejected(self, toy, ampere):
        other = ToyWorkload(ampere, n_threads=2)
        with pytest.raises(WorkloadError):
            toy.op_source(other.phases[0], 0)

    def test_rss_at_grows_then_saturates(self, toy):
        t = np.linspace(0, toy.baseline_seconds(), 50)
        rss = toy.rss_at(t)
        assert rss[0] < rss[-1]
        assert rss[-1] == pytest.approx(1 << 20)
        assert (np.diff(rss) >= -1e-6).all()

    def test_empty_workload_rejected(self, ampere):
        class Empty(Workload):
            name = "empty"

            def _build(self):
                pass

        with pytest.raises(WorkloadError):
            Empty(ampere)

    def test_bad_scale(self, ampere):
        with pytest.raises(WorkloadError):
            ToyWorkload(ampere, scale=0)


class TestPhaseOpSource:
    def test_mem_fraction_matches_group(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        idx = rng.integers(0, src.n_ops, 50_000)
        kinds, _ = src.ops_at(idx, rng)
        mem = ((kinds == OpKind.LOAD) | (kinds == OpKind.STORE)).mean()
        assert mem == pytest.approx(0.25, abs=0.01)

    def test_store_fraction(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        idx = np.arange(src.n_ops)
        kinds, _ = src.ops_at(idx, rng)
        stores = (kinds == OpKind.STORE).sum()
        loads = (kinds == OpKind.LOAD).sum()
        assert stores / (stores + loads) == pytest.approx(0.25, abs=0.02)

    def test_flops_present(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        kinds, _ = src.ops_at(np.arange(1000), rng)
        assert (kinds == OpKind.FLOP).sum() > 0

    def test_deterministic_across_calls(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        idx = np.arange(0, 4000, 7)
        k1, a1 = src.ops_at(idx, np.random.default_rng(1))
        k2, a2 = src.ops_at(idx, np.random.default_rng(2))
        assert (k1 == k2).all()
        assert (a1 == a2).all()

    def test_addresses_within_object(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        kinds, addrs = src.ops_at(np.arange(20_000), rng)
        mem = (kinds == OpKind.LOAD) | (kinds == OpKind.STORE)
        assert (addrs[mem] >= 0x10000).all()

    def test_levels_only_for_mem(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        idx = np.arange(2000)
        kinds, addrs = src.ops_at(idx, rng)
        levels = src.levels_at(idx, kinds, addrs, rng)
        mem = (kinds == OpKind.LOAD) | (kinds == OpKind.STORE)
        assert (levels[mem] >= 1).all()
        assert (levels[~mem] == 0).all()

    def test_materialise_limit(self, toy, rng):
        src = toy.op_source(toy.phases[0], 0)
        with pytest.raises(WorkloadError):
            src.materialise(rng, limit=10)

    def test_materialise_full_stream(self, toy, rng):
        src = toy.op_source(toy.phases[1], 0)
        chunk = src.materialise(rng)
        assert len(chunk) == src.n_ops


class SkippingPhase(Phase):
    """A phase whose every third op group takes slot ``group``: no memory op."""

    def mem_slots(self, mem_idx):
        slots = super().mem_slots(mem_idx)
        return np.where(np.asarray(mem_idx) % 3 == 0, self.group, slots)


def thread_addr(mem_idx, thread):
    mi = np.asarray(mem_idx, dtype=np.uint64)
    th = np.asarray(thread, dtype=np.uint64)
    return np.uint64(0x10000) + mi * np.uint64(8) + (th << np.uint64(32))


def thread_kinds(mem_idx, thread):
    return (np.asarray(mem_idx) + np.asarray(thread)) % 3 == 0


def reference_op(p, i, thread):
    """(kind, addr) of op ``i`` of ``thread``, one index at a time, by the
    rule :meth:`Phase.mem_slots` documents."""
    m, pos = divmod(int(i), p.group)
    mi = np.array([m], dtype=np.int64)
    slot = int(p.mem_slots(mi)[0])
    if pos == slot:
        if p.kind_fn is not None:
            store = bool(p.kind_fn(mi, thread)[0])
        else:
            store = bool(hash_uniform(mi, salt=17)[0] < p.store_fraction)
        return (OpKind.STORE if store else OpKind.LOAD), int(p.addr_fn(mi, thread)[0])
    if 1 <= (pos - slot) % p.group <= p.flops_per_group:
        return OpKind.FLOP, 0
    return OpKind.OTHER, 0


class TestOpKindRule:
    """``ops_at`` is the per-op rule, evaluated over arrays of indices."""

    CASES = [(g, f) for g in range(1, 6) for f in range(g)]

    @pytest.mark.parametrize("phase_cls", [Phase, SkippingPhase])
    @pytest.mark.parametrize("kind_fn", [None, thread_kinds])
    @pytest.mark.parametrize("group,flops", CASES)
    def test_matches_per_index_rule(self, ampere, phase_cls, kind_fn, group, flops):
        p = phase_cls(
            "x", 10_000, 1.0, thread_addr, [AccessClass(footprint=1 << 20)],
            group=group, flops_per_group=flops, kind_fn=kind_fn,
            store_fraction=0.4,
        )
        src = PhaseOpSource(p, 2, StatCacheModel(ampere))
        rng = np.random.default_rng(group * 10 + flops)
        idx = np.concatenate(
            [np.arange(9 * group), rng.integers(0, p.n_ops, 300)]
        )
        threads = rng.integers(0, 4, idx.size)
        for th, per_op in ((None, [2] * idx.size), (threads, threads)):
            kinds, addrs = src.ops_at(idx, rng, th)
            assert kinds.dtype == np.uint8 and addrs.dtype == np.uint64
            want = [reference_op(p, i, int(t)) for i, t in zip(idx, per_op)]
            assert kinds.tolist() == [k for k, _ in want]
            assert addrs.tolist() == [a for _, a in want]
        if phase_cls is SkippingPhase:
            # every third group really has no memory op
            kinds, _ = src.ops_at(np.arange(3 * group * 4), rng)
            groups = kinds.reshape(-1, group)[::3]
            assert not np.isin(groups, [OpKind.LOAD, OpKind.STORE]).any()


class TestHashUniform:
    def test_range(self):
        u = hash_uniform(np.arange(10_000))
        assert (u >= 0).all() and (u < 1).all()

    def test_mean_near_half(self):
        assert hash_uniform(np.arange(100_000)).mean() == pytest.approx(0.5, abs=0.01)

    def test_salt_changes_values(self):
        a = hash_uniform(np.arange(100), salt=1)
        b = hash_uniform(np.arange(100), salt=2)
        assert (a != b).any()
