"""Differential suite: the vectorized SPE record path is byte-identical
to the retained scalar references.

Covers the three fast paths the perf rewrite introduced:

* :func:`collision_scan` vs :func:`_reference_collision_scan` across the
  dense and sparse strategies (and the density-probe bail-out),
* :meth:`SpeDriver._planned_feed` vs :meth:`SpeDriver._reference_feed`
  including wrap-around, sub-watermark carry, torn-loss carry across
  phases, COLLISION/TRUNCATED flag schedules, ring-buffer overflow, and
  end state of every buffer byte,
* the bulk buffer primitives (:meth:`AuxBuffer.stream_paced`,
  :meth:`RingBuffer.write_records_packed`) vs their incremental
  equivalents.
"""

import os

import numpy as np
import pytest

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import OpKind
from repro.cpu.pipeline import PipelineModel
from repro.kernel.aux_buffer import AuxBuffer
from repro.kernel.perf_event import ARM_SPE_PMU_TYPE, PerfEventAttr, PerfSubsystem
from repro.kernel.records import AuxRecord, pack_aux_records
from repro.kernel.ring_buffer import RingBuffer
from repro.machine.hierarchy import MemLevel
from repro.spe.config import SpeConfig
from repro.spe.driver import SpeCostModel, SpeDriver, plan_feed_epochs, feed_written_mask
from repro.spe.refpath import reference_active, reference_path
from repro.spe.sampler import (
    SpeSampler,
    TraceOpSource,
    _reference_collision_scan,
    collision_scan,
)


class TestReferencePathToggle:
    def test_context_manager_restores(self):
        assert not reference_active()
        with reference_path():
            assert reference_active()
            with reference_path():
                assert reference_active()
            assert reference_active()
        assert not reference_active()

    def test_reference_path_reaches_pool_workers(self):
        from repro.orchestrate import ParallelRunner, TrialSpec

        grid = [TrialSpec("refpath", {}, seed) for seed in range(4)]
        with reference_path():
            inside = ParallelRunner(workers=2).map(toggle_in_worker, grid)
        outside = ParallelRunner(workers=2).map(toggle_in_worker, grid)
        assert all(pid != os.getpid() for _, pid in inside + outside)
        assert [active for active, _ in inside] == [True] * 4
        assert [active for active, _ in outside] == [False] * 4


def toggle_in_worker(spec) -> tuple[bool, int]:
    return reference_active(), os.getpid()


def scan_case(mode: int, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """One (select_cycles, latencies) pair exercising a specific regime."""
    if mode == 0:  # dense survivors (precomputed-successor strategy)
        return np.sort(rng.uniform(0, n * 10, n)), rng.uniform(1, 500, n)
    if mode == 1:  # moderate overlap
        return np.sort(rng.uniform(0, n, n)), rng.uniform(100, 5000, n)
    if mode == 2:  # exact busy-boundary ties (>= vs > semantics)
        return np.arange(n, dtype=float) * 100, np.full(n, 100.0)
    if mode == 3:  # duplicate select times, near-zero latencies
        t = np.sort(np.repeat(rng.uniform(0, n, n // 4 + 1), 4)[:n])
        return t, rng.uniform(0, 3, n)
    if mode == 4:  # zero latency everywhere
        return np.sort(rng.uniform(0, n * 2, n)), np.zeros(n)
    if mode == 5:  # adversarial: heavy first half only (bail-out path)
        t = np.sort(rng.uniform(0, n * 100, n))
        lat = np.where(
            np.arange(n) < n // 2, rng.uniform(5000.0, 20000.0, n), 0.1
        )
        return t, lat
    # collision-heavy (sparse lazy-bisect strategy)
    return np.sort(rng.uniform(0, n, n)), rng.uniform(1000, 8000, n)


class TestCollisionScanParity:
    @pytest.mark.parametrize("mode", range(7))
    def test_randomized_parity(self, mode):
        rng = np.random.default_rng(100 + mode)
        for _ in range(12):
            n = int(rng.integers(1, 25_000))
            t, lat = scan_case(mode, n, rng)
            keep_v, coll_v = collision_scan(t, lat)
            keep_r, coll_r = _reference_collision_scan(t, lat)
            assert coll_v == coll_r
            assert (keep_v == keep_r).all()

    def test_block_boundary_sizes(self):
        # straddle the vectorized successor block size
        from repro.spe.sampler import _SCAN_BLOCK

        rng = np.random.default_rng(7)
        for n in (_SCAN_BLOCK - 1, _SCAN_BLOCK, _SCAN_BLOCK + 1, 2 * _SCAN_BLOCK + 3):
            t = np.sort(rng.uniform(0, n, n))
            lat = rng.uniform(50, 2000, n)
            keep_v, coll_v = collision_scan(t, lat)
            keep_r, coll_r = _reference_collision_scan(t, lat)
            assert coll_v == coll_r and (keep_v == keep_r).all()

    def test_single_sample_and_empty(self):
        for t, lat in (
            (np.zeros(0), np.zeros(0)),
            (np.array([5.0]), np.array([100.0])),
        ):
            keep_v, coll_v = collision_scan(t, lat)
            keep_r, coll_r = _reference_collision_scan(t, lat)
            assert coll_v == coll_r and (keep_v == keep_r).all()

    def test_reference_path_routes_to_reference(self):
        rng = np.random.default_rng(0)
        t = np.sort(rng.uniform(0, 100, 1000))
        lat = rng.uniform(10, 500, 1000)
        with reference_path():
            keep, coll = collision_scan(t, lat)
        keep_r, coll_r = _reference_collision_scan(t, lat)
        assert coll == coll_r and (keep == keep_r).all()


# -- feed parity harness -----------------------------------------------------------


def open_event(machine, aux_pages=4, ring_pages=8, watermark=None, period=100):
    ps = PerfSubsystem(machine)
    ev = ps.perf_event_open(
        PerfEventAttr(
            type=ARM_SPE_PMU_TYPE,
            config=SpeConfig.loads_and_stores().encode(),
            sample_period=period,
            disabled=False,
            aux_watermark=watermark or 0,
        ),
        cpu=0,
    )
    ev.mmap_ring(ring_pages)
    ev.mmap_aux(aux_pages)
    return ev


def sampled(machine, n, seed, cpi=1.0, period=100, jitter=True):
    rng = np.random.default_rng(seed)
    kinds = np.full(n, OpKind.LOAD, np.uint8)
    addrs = rng.integers(1, 1 << 40, n, dtype=np.uint64)
    levels = np.full(n, int(MemLevel.L1), np.uint8)
    src = TraceOpSource(kinds, addrs, levels, cpi=cpi)
    cfg = SpeConfig(loads=True, stores=True, jitter=jitter)
    sampler = SpeSampler(
        period, cfg, PipelineModel(machine), GenericTimer(machine.frequency_hz), rng
    )
    return sampler.sample_stream(src)


def assert_results_equal(a, b, ctx=""):
    for f in ("n_input", "n_written", "n_lost_stall", "n_wakeups", "truncated_records"):
        assert getattr(a, f) == getattr(b, f), (ctx, f)
    assert a.overhead_cycles == b.overhead_cycles, (ctx, "overhead_cycles")
    assert a.decode == b.decode, ctx
    assert a.aux_records == b.aux_records, ctx
    for c in a.batch._COLUMNS:
        assert (getattr(a.batch, c) == getattr(b.batch, c)).all(), (ctx, c)


def assert_sessions_equal(ev1, ev2, drv1, drv2, ctx=""):
    a1, a2 = ev1.aux, ev2.aux
    assert (a1.head, a1.tail, a1._last_signal) == (a2.head, a2.tail, a2._last_signal), ctx
    assert (a1.bytes_written, a1.bytes_dropped) == (a2.bytes_written, a2.bytes_dropped), ctx
    assert (a1._buf == a2._buf).all(), ctx
    r1, r2 = ev1.ring, ev2.ring
    assert r1.meta.data_head == r2.meta.data_head, ctx
    assert (r1.records_written, r1.records_lost, r1._pending_lost) == (
        r2.records_written,
        r2.records_lost,
        r2._pending_lost,
    ), ctx
    assert (r1._buf == r2._buf).all(), ctx
    assert ev1.wakeups == ev2.wakeups, ctx
    assert (drv1._pending_rec, drv1._pending_loss, drv1._prev_lost) == (
        drv2._pending_rec,
        drv2._pending_loss,
        drv2._prev_lost,
    ), ctx
    assert drv1._announced_collisions == drv2._announced_collisions, ctx
    for f in ("total_collisions", "total_wakeups", "total_lost", "total_input",
              "total_written"):
        assert getattr(drv1, f) == getattr(drv2, f), (ctx, f)


def run_both(machine, phases, cost, aux_pages=4, ring_pages=8, watermark=None,
             flush_between=(), with_collisions=()):
    """Feed identical phase streams through a vectorized and a reference
    session, asserting deep parity after every step."""
    ev_v = open_event(machine, aux_pages, ring_pages, watermark)
    ev_r = open_event(machine, aux_pages, ring_pages, watermark)
    drv_v = SpeDriver(ev_v, cost)
    drv_r = SpeDriver(ev_r, cost)
    for phase, (n, seed) in enumerate(phases):
        out_v = sampled(machine, n, seed)
        out_r = sampled(machine, n, seed)
        if phase in with_collisions:
            out_v.n_collisions = out_r.n_collisions = 5
        res_v = drv_v.feed(out_v)
        with reference_path():
            res_r = drv_r.feed(out_r)
        ctx = f"phase {phase} (n={n})"
        assert_results_equal(res_v, res_r, ctx)
        assert_sessions_equal(ev_v, ev_r, drv_v, drv_r, ctx)
        if phase in flush_between:
            f_v, f_r = drv_v.flush(), drv_r.flush()
            assert_results_equal(f_v, f_r, f"{ctx} flush")
            assert_sessions_equal(ev_v, ev_r, drv_v, drv_r, f"{ctx} flush")
    f_v, f_r = drv_v.flush(), drv_r.flush()
    assert_results_equal(f_v, f_r, "final flush")
    assert_sessions_equal(ev_v, ev_r, drv_v, drv_r, "final flush")


class TestFeedParity:
    @pytest.mark.parametrize("loss", [0, 7, 100, 450])
    @pytest.mark.parametrize("watermark", [None, 64, 1000, 4096])
    def test_multi_phase_parity(self, ampere, loss, watermark):
        cost = SpeCostModel(service_loss_records=loss)
        run_both(
            ampere,
            phases=[(200_000, 0), (3_000, 1), (90_000, 2), (10, 3)],
            cost=cost,
            watermark=watermark,
        )

    def test_sub_watermark_carry_chains(self, ampere):
        # every phase smaller than the watermark: carry accumulates
        # across feeds and only the final flush drains
        run_both(
            ampere,
            phases=[(1_500, s) for s in range(6)],
            cost=SpeCostModel(service_loss_records=30),
            watermark=200_000,
        )

    def test_torn_loss_spans_phases(self, ampere):
        # a giant torn window swallows whole subsequent phases
        run_both(
            ampere,
            phases=[(120_000, 0), (300, 1), (300, 2), (50_000, 3)],
            cost=SpeCostModel(service_loss_records=2000),
            watermark=2048,
        )

    def test_aux_wraps_many_times(self, ampere):
        # tiny buffer, many services: the ring wraps repeatedly
        run_both(
            ampere,
            phases=[(250_000, 0), (250_000, 1)],
            cost=SpeCostModel(service_loss_records=11),
            aux_pages=4,
            watermark=256,
        )

    def test_ring_overflow_drops_aux_records(self, ampere):
        # a 1-page data ring overflows: AUX records are dropped and a
        # PERF_RECORD_LOST is owed — parity must hold through that too
        run_both(
            ampere,
            phases=[(250_000, 0), (100_000, 1)],
            cost=SpeCostModel(service_loss_records=0),
            ring_pages=1,
            watermark=256,
        )

    def test_collision_flag_announced_once(self, ampere):
        run_both(
            ampere,
            phases=[(60_000, 0), (60_000, 1), (60_000, 2)],
            cost=SpeCostModel(service_loss_records=25),
            with_collisions={1},
        )

    def test_flush_mid_sequence(self, ampere):
        run_both(
            ampere,
            phases=[(90_000, 0), (20_000, 1), (90_000, 2)],
            cost=SpeCostModel(service_loss_records=60),
            flush_between={1},
        )

    def test_randomized_phase_soup(self, ampere):
        rng = np.random.default_rng(42)
        for trial in range(4):
            loss = int(rng.integers(0, 800))
            wm = int(rng.choice([64, 320, 1024, 8192, 100_000]))
            phases = [
                (int(rng.integers(1, 120_000)), 1000 * trial + i)
                for i in range(int(rng.integers(2, 6)))
            ]
            run_both(
                ampere,
                phases=phases,
                cost=SpeCostModel(service_loss_records=loss),
                watermark=wm,
            )

    def test_planner_fallback_on_external_ring_motion(self, ampere):
        # an externally written aux ring violates the planner's carry
        # invariant: feed must detect it and still match the reference
        ev_v = open_event(ampere)
        ev_r = open_event(ampere)
        for ev in (ev_v, ev_r):
            ev.aux.write(b"\x00" * 64)  # stray bytes the driver never wrote
        drv_v, drv_r = SpeDriver(ev_v), SpeDriver(ev_r)
        out_v = sampled(ampere, 50_000, 0)
        out_r = sampled(ampere, 50_000, 0)
        res_v = drv_v.feed(out_v)
        with reference_path():
            res_r = drv_r.feed(out_r)
        assert_results_equal(res_v, res_r, "external-motion fallback")


class TestFeedPlanArithmetic:
    """plan_feed_epochs against a direct simulation of the loop."""

    @staticmethod
    def simulate(n, wm_rec, pending_rec, pending_loss, loss_window):
        i = lost = services = 0
        while i < n:
            if pending_loss:
                skip = min(pending_loss, n - i)
                pending_loss -= skip
                lost += skip
                i += skip
                continue
            take = min(wm_rec - pending_rec, n - i)
            pending_rec += take
            i += take
            if pending_rec >= wm_rec:
                services += 1
                pending_rec = 0
                pending_loss = loss_window
        return lost, services, pending_rec, pending_loss

    def test_matches_simulation(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            wm_rec = int(rng.integers(1, 500))
            n = int(rng.integers(0, 20_000))
            pending_rec = int(rng.integers(0, wm_rec))
            pending_loss = int(rng.integers(0, 3000))
            loss_window = int(rng.integers(0, 1200))
            plan = plan_feed_epochs(n, wm_rec, pending_rec, pending_loss, loss_window)
            lost, services, p_rec, p_loss = self.simulate(
                n, wm_rec, pending_rec, pending_loss, loss_window
            )
            assert plan.lost == lost
            assert plan.n_services == services
            assert plan.pending_rec_end == p_rec
            assert plan.pending_loss_end == p_loss
            assert plan.written == n - lost
            mask = feed_written_mask(plan)
            assert int(mask.sum()) == plan.written

    def test_written_mask_pattern(self):
        plan = plan_feed_epochs(
            n=20, wm_rec=4, pending_rec=1, pending_loss=2, loss_window=3
        )
        mask = feed_written_mask(plan)
        # [2 torn] [3 written] SERVICE [3 torn] [4 written] SERVICE
        # [3 torn] [4 written] SERVICE [1 torn]
        expected = (
            [False] * 2 + [True] * 3 + [False] * 3 + [True] * 4
            + [False] * 3 + [True] * 4 + [False] * 1
        )
        assert mask.tolist() == expected
        assert plan.n_services == 3
        assert plan.pending_loss_end == 2
        assert plan.pending_rec_end == 0


class TestBulkBufferPrimitives:
    def test_stream_paced_equals_incremental(self, rng):
        for trial in range(40):
            pages = int(rng.integers(1, 5))
            size = pages * 4096
            wm = int(rng.integers(64, size + 1)) // 64 * 64 or 64
            a_inc = AuxBuffer(pages, 4096, watermark=wm)
            a_blk = AuxBuffer(pages, 4096, watermark=wm)
            # pre-existing carry in both
            carry = int(rng.integers(0, wm // 64)) * 64
            seedbytes = rng.integers(0, 256, carry, dtype=np.uint8)
            for a in (a_inc, a_blk):
                assert a.write(seedbytes) == carry
            n_drains = int(rng.integers(0, 12))
            total = n_drains * wm - carry + int(rng.integers(0, wm // 64)) * 64
            total = max(total, 0)
            data = rng.integers(0, 256, total, dtype=np.uint8)
            # incremental: write up to each drain point, drain fully
            signals_inc = []
            written = 0
            for _ in range(n_drains):
                chunk = wm - (a_inc.head - a_inc.tail)
                a_inc.write(data[written : written + chunk])
                written += chunk
                off, sz = a_inc.take_signal()
                signals_inc.append((off, sz))
                a_inc.read(off, sz)
                a_inc.advance_tail(off + sz)
            a_inc.write(data[written:])
            signals_blk = a_blk.stream_paced(data, n_drains, wm)
            assert signals_blk == signals_inc
            assert (a_blk.head, a_blk.tail, a_blk._last_signal) == (
                a_inc.head, a_inc.tail, a_inc._last_signal
            )
            assert (a_blk._buf == a_inc._buf).all()
            assert a_blk.bytes_written == a_inc.bytes_written

    def test_stream_paced_rejects_overdrain(self):
        a = AuxBuffer(1, 4096)
        from repro.errors import BufferError_

        with pytest.raises(BufferError_):
            a.stream_paced(np.zeros(64, np.uint8), n_drains=2, drain_bytes=2048)

    def test_stream_paced_rejects_overflow_schedules(self):
        # schedules where the incremental path would drop bytes must be
        # refused, never silently corrupt head/tail/free
        from repro.errors import BufferError_

        a = AuxBuffer(1, 4096)
        with pytest.raises(BufferError_):  # no drains, stream > size
            a.stream_paced(np.zeros(8192, np.uint8), n_drains=0, drain_bytes=2048)
        b = AuxBuffer(1, 4096)
        with pytest.raises(BufferError_):  # trailing partial overflows
            b.stream_paced(np.zeros(2048 + 4097, np.uint8), n_drains=1,
                           drain_bytes=2048)
        assert a.head == 0 and a.bytes_written == 0
        assert b.head == 0 and b.bytes_written == 0

    def test_write_records_packed_equals_sequential(self, rng):
        for trial in range(30):
            ring_inc = RingBuffer(n_pages=1, page_size=int(rng.choice([256, 512, 4096])))
            ring_blk = RingBuffer(n_pages=1, page_size=ring_inc.page_size)
            n = int(rng.integers(1, 80))
            offsets = np.arange(n, dtype=np.uint64) * 2048
            flags = rng.integers(0, 16, n).astype(np.uint64)
            recs = [
                AuxRecord(aux_offset=int(o), aux_size=2048, flags=int(f))
                for o, f in zip(offsets, flags)
            ]
            for r in recs:
                ring_inc.write_record(r)
            packed = pack_aux_records(offsets, 2048, flags)
            ring_blk.write_records_packed(packed)
            assert ring_blk.meta.data_head == ring_inc.meta.data_head
            assert ring_blk.records_written == ring_inc.records_written
            assert ring_blk.records_lost == ring_inc.records_lost
            assert ring_blk._pending_lost == ring_inc._pending_lost
            assert (ring_blk._buf == ring_inc._buf).all()

    def test_write_records_packed_flushes_pending_lost(self):
        ring_inc = RingBuffer(n_pages=1, page_size=256)
        ring_blk = RingBuffer(n_pages=1, page_size=256)
        rec = AuxRecord(aux_offset=0, aux_size=64, flags=0)
        for ring in (ring_inc, ring_blk):
            while ring.write_record(rec):
                pass  # fill until drops start
            assert ring._pending_lost
            ring.read_records()  # drain: next write owes a LOST record
        follow = [AuxRecord(aux_offset=i, aux_size=64, flags=0) for i in range(3)]
        for r in follow:
            ring_inc.write_record(r)
        ring_blk.write_records_packed(
            pack_aux_records(np.arange(3, dtype=np.uint64), 64, 0)
        )
        assert ring_blk._pending_lost == ring_inc._pending_lost == 0
        assert (ring_blk._buf == ring_inc._buf).all()
        assert ring_blk.meta.data_head == ring_inc.meta.data_head

    def test_pack_aux_records_byte_identical(self, rng):
        offsets = rng.integers(0, 1 << 40, 17).astype(np.uint64)
        flags = rng.integers(0, 16, 17).astype(np.uint64)
        mat = pack_aux_records(offsets, 4096, flags)
        for i in range(17):
            assert mat[i].tobytes() == AuxRecord(
                aux_offset=int(offsets[i]), aux_size=4096, flags=int(flags[i])
            ).pack()

    def test_read_view_matches_read(self, rng):
        a = AuxBuffer(1, 4096)
        a.write(rng.integers(0, 256, 3000, dtype=np.uint8))
        a.advance_tail(2500)
        a.write(rng.integers(0, 256, 2000, dtype=np.uint8))  # wraps
        assert a.read_view(2500, 2500).tobytes() == a.read(2500, 2500)


class TestOpLatencyLut:
    """The uint8-LUT op_latencies equals the per-kind masked assignment."""

    def test_matches_masked_reference(self, ampere, rng):
        pm = PipelineModel(ampere)
        kinds = rng.integers(0, 5, 50_000).astype(np.uint8)
        levels = np.where(
            (kinds == OpKind.LOAD) | (kinds == OpKind.STORE),
            rng.integers(1, 5, 50_000),
            0,
        ).astype(np.uint8)
        got = pm.op_latencies(kinds, levels, rng=None, dram_scale=2.0)
        ref = np.empty(kinds.shape, dtype=np.float64)
        for kind, cost in pm.issue_cycles.items():
            ref[kinds == kind] = cost
        is_mem = (kinds == OpKind.LOAD) | (kinds == OpKind.STORE)
        lut = np.zeros(int(MemLevel.DRAM_CXL) + 1, dtype=np.float64)
        for lv in MemLevel:
            lut[int(lv)] = pm.level_latency(lv)
        for lv in MemLevel:
            if lv.is_dram_class:
                lut[int(lv)] *= 2.0
        ref[is_mem] += lut[levels[is_mem]]
        assert (got == ref).all()
