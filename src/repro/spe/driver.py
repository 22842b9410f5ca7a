"""SPE driver: aux-buffer management, interrupts, and the cost model.

This module wires the sampler's record stream into the perf substrate the
way the kernel's ``arm_spe_pmu`` driver does (paper §II-A, §IV-A):

* records are written into the **aux buffer**; every ``aux_watermark``
  bytes the kernel posts a ``PERF_RECORD_AUX`` into the data ring and
  wakes the consumer (an interrupt),
* while the driver services the buffer, SPE profiling is **quiesced**:
  samples arriving in that window are dropped and the next AUX record
  carries ``PERF_AUX_FLAG_TRUNCATED`` — this is the buffer-size-dependent
  accuracy loss of paper Fig. 9,
* interrupt handling and consumer-side record processing steal cycles
  from the application — the **time overhead** of Fig. 8b/9/10,
* aux buffers smaller than :attr:`SpeCostModel.min_working_pages` cannot
  be double-buffered by the driver and produce no samples at all (the
  paper's observation that "ARM SPE loses all samples if the Aux buffer
  is not large enough; the minimum size to ensure SPE works is 4 pages").

Cost-model constants are calibrated so the *shapes* of Fig. 8-11 emerge.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SpeError
from repro.kernel.perf_event import PerfEvent
from repro.kernel.records import (
    PERF_AUX_FLAG_COLLISION,
    PERF_AUX_FLAG_TRUNCATED,
    AuxRecord,
    AuxRecordBatch,
    pack_aux_records,
)
from repro.spe.packets import RECORD_SIZE, DecodeStats, decode_stream
from repro.spe.records import SampleBatch
from repro.spe.refpath import reference_active
from repro.spe.sampler import SamplerOutput

#: what a feed that drains nothing delivers (shared, read-only)
_NO_SAMPLES = SampleBatch()
for _column in SampleBatch._COLUMNS:
    getattr(_NO_SAMPLES, _column).setflags(write=False)
_NO_DECODE = DecodeStats(0, 0, 0, 0)


@dataclass(frozen=True)
class SpeCostModel:
    """Timing constants of the SPE/perf service path (core cycles).

    The defaults are calibrated against the paper's reported magnitudes
    (sub-percent overhead at large periods, 90 %+ accuracy at 16+ aux
    pages on a 3 GHz core with 64 KB pages).
    """

    #: per-interrupt cost charged to the interrupted core (IRQ entry,
    #: buffer management, consumer wakeup: ~33 us at 3 GHz)
    irq_cycles: float = 100_000.0
    #: per-record consumer-side processing cost (decode, hash, store).
    #: Charged as records are produced: NMO's monitor drains on watermark
    #: wakeups *and* on its periodic epoll timeout, so every record
    #: written during the run is processed during the run.
    user_record_cycles: float = 30.0
    #: records lost around each buffer-management pass: SPE must be
    #: stopped and its write pointer switched, tearing a fixed window of
    #: in-flight records.  Loss fraction is therefore ``K / watermark`` —
    #: strongly buffer-size dependent (Fig. 9) but period independent
    #: (BFS keeps high accuracy at small periods, Fig. 8a).
    service_loss_records: int = 450
    #: scale factor on the service loss (consumer pipelining across
    #: many per-thread buffers shrinks it; single-buffer runs pay more)
    service_loss_scale: float = 1.0
    #: below this many aux pages the driver cannot start (paper: 4)
    min_working_pages: int = 4
    #: residual cost of an armed-but-idle session (epoll timeouts etc.)
    idle_overhead_cycles: float = 50_000.0
    #: aggregate interrupt rate beyond which perf throttles sampling
    max_irq_rate_hz: float = 11_000.0


@dataclass(frozen=True)
class FeedPlan:
    """Closed-form epoch schedule for one :meth:`SpeDriver.feed` call.

    The per-watermark service loop is fully determined by five integers:
    the stream length ``n``, the watermark in records ``wm_rec``, the
    sub-watermark carry ``pending_rec``, the carried torn-loss budget
    ``pending_loss``, and the per-service torn window ``loss_window``.
    The stream decomposes into *epochs*::

        [d0 torn] [w_first written] SERVICE
                  [loss torn] [wm_rec written] SERVICE   (x n_services-1)
                  [d_tail torn] [w_tail written]          (partial epoch)

    so service points, wakeup counts, losses, and flag schedules all
    follow arithmetically — no iteration required.
    """

    n: int
    wm_rec: int
    loss_window: int
    d0: int            #: records torn by the carried loss window
    w_first: int       #: records written before the first service
    n_services: int    #: watermark crossings (wakeups) in this feed
    d_tail: int        #: records torn in the trailing partial epoch
    w_tail: int        #: records written after the last service
    lost: int          #: total records torn (never reach the buffer)
    written: int       #: total records written to the aux buffer
    pending_rec_end: int   #: sub-watermark carry into the next feed
    pending_loss_end: int  #: torn-loss budget carried into the next feed


def plan_feed_epochs(
    n: int, wm_rec: int, pending_rec: int, pending_loss: int, loss_window: int
) -> FeedPlan:
    """Compute the :class:`FeedPlan` for a feed of ``n`` records."""
    d0 = min(pending_loss, n)
    avail = n - d0
    w_room = wm_rec - pending_rec
    if avail >= w_room:
        stride = loss_window + wm_rec
        after = avail - w_room
        n_services = 1 + after // stride
        rem = after % stride
        d_tail = min(rem, loss_window)
        w_tail = rem - d_tail
        w_first = w_room
        lost = d0 + (n_services - 1) * loss_window + d_tail
        pending_loss_end = loss_window - d_tail
    else:
        n_services = 0
        d_tail = 0
        w_tail = 0
        w_first = avail
        lost = d0
        pending_loss_end = pending_loss - d0
    written = n - lost
    return FeedPlan(
        n=n,
        wm_rec=wm_rec,
        loss_window=loss_window,
        d0=d0,
        w_first=w_first,
        n_services=n_services,
        d_tail=d_tail,
        w_tail=w_tail,
        lost=lost,
        written=written,
        pending_rec_end=pending_rec + written - n_services * wm_rec,
        pending_loss_end=pending_loss_end,
    )


def feed_written_mask(plan: FeedPlan) -> np.ndarray:
    """Boolean mask over the ``n`` input records of those written (i.e.
    not torn by a loss window), in arrival order."""
    mask = np.zeros(plan.n, dtype=bool)
    mask[plan.d0 : plan.d0 + plan.w_first] = True
    start = plan.d0 + plan.w_first
    if plan.n_services and start < plan.n:
        q = np.arange(plan.n - start, dtype=np.int64)
        mask[start:] = q % (plan.loss_window + plan.wm_rec) >= plan.loss_window
    return mask


@dataclass
class DriverResult:
    """Outcome of streaming one phase's samples through the buffers."""

    batch: SampleBatch                 #: samples delivered to the profiler
    n_input: int                       #: records offered by the sampler
    n_written: int                     #: records written to the aux buffer
    n_lost_stall: int                  #: dropped while SPE was quiesced
    n_wakeups: int                     #: interrupts / consumer wakeups
    overhead_cycles: float             #: cycles stolen from the app
    truncated_records: int             #: AUX records flagged TRUNCATED
    decode: DecodeStats | None = None
    #: the AUX records posted (a plain list from the reference/flush
    #: paths, a columnar :class:`AuxRecordBatch` from the planned path —
    #: both behave as a sequence of :class:`AuxRecord`)
    aux_records: list[AuxRecord] | AuxRecordBatch = field(default_factory=list)


class SpeDriver:
    """Per-core SPE session: sampler output -> aux/ring -> decoded samples."""

    def __init__(
        self,
        event: PerfEvent,
        cost: SpeCostModel | None = None,
    ) -> None:
        if event.ring is None or event.aux is None:
            raise SpeError("SPE event needs ring and aux buffers mmap'd")
        self.event = event
        self.cost = cost or SpeCostModel()
        self.total_collisions = 0
        self.total_wakeups = 0
        self.total_lost = 0
        self.total_input = 0
        self.total_written = 0
        # persistent-session state: records pending below the watermark
        # carry over between feed() calls (phases), like real SPE
        self._pending_rec = 0
        self._pending_loss = 0  # torn-window records still to drop
        self._prev_lost = False
        self._announced_collisions = False
        self._idle_charged = False
        #: records torn around each buffer-management pass
        self._loss_window = max(
            0, int(round(self.cost.service_loss_records * self.cost.service_loss_scale))
        )

    @property
    def working(self) -> bool:
        """Whether the aux buffer is large enough for SPE to operate."""
        assert self.event.aux is not None
        return self.event.aux.n_pages >= self.cost.min_working_pages

    @property
    def inert(self) -> bool:
        """Whether every record fed to the session is lost unwritten (the
        aux buffer is too small, or the event is disabled)."""
        return not self.working or not self.event.enabled

    def _service(self, aux, ring, aux_records, charge: bool) -> tuple[
        SampleBatch, DecodeStats, float
    ]:
        """One buffer-management pass: AUX record, drain, decode.

        ``charge=False`` models the end-of-run drain, which the paper
        notes happens after the timed region ("the monitoring process in
        NMO drains the buffer after the exit of the program ... influence
        from the final buffer drain on timing overhead is minimal").
        """
        offset, size = aux.take_signal()
        flags = 0
        if self._prev_lost:
            flags |= PERF_AUX_FLAG_TRUNCATED
        if self.total_collisions and not self._announced_collisions:
            flags |= PERF_AUX_FLAG_COLLISION
            self._announced_collisions = True
        rec = AuxRecord(aux_offset=offset, aux_size=size, flags=flags)
        ring.write_record(rec)
        aux_records.append(rec)
        self.event.wakeups += 1
        self.total_wakeups += 1

        # stream the span through record-aligned windows: nothing
        # proportional to the drain size is ever materialised
        got, stats = decode_stream(aux.read_chunks(offset, size))
        aux.advance_tail(offset + size)
        cost = self.cost.irq_cycles if charge else 0.0
        return got, stats, cost

    def feed(self, out: SamplerOutput) -> DriverResult:
        """Stream one phase's sampler output into the session.

        The sampler's encoded records (in arrival order, as SPE writes
        them) accumulate in the aux buffer across calls; whenever the
        watermark is crossed, the kernel posts ``PERF_RECORD_AUX``, the
        consumer drains and decodes the bytes (they really round-trip
        through the buffer and packet decoder), interrupt and processing
        costs are charged, and a torn window of in-flight records is lost
        while SPE restarts (TRUNCATED on the next AUX record).

        The schedule of services, losses, and flags is computed in closed
        form by :func:`plan_feed_epochs` and executed with bulk buffer
        operations (:meth:`_planned_feed`); the original per-watermark
        loop is retained as :meth:`_reference_feed` and pinned
        byte-identical by the differential suite.  Degenerate geometries
        the planner does not model (a watermark smaller than one record
        relative to a sub-record buffer, or an aux ring whose signal
        state was moved externally) fall back to the reference loop.
        """
        aux = self.event.aux
        assert aux is not None
        if reference_active():
            return self._reference_feed(out)
        if max(1, aux.watermark // RECORD_SIZE) * RECORD_SIZE > aux.size:
            return self._reference_feed(out)
        pending = aux.pending_signal()
        if pending != self._pending_rec * RECORD_SIZE or (
            aux.head - aux.tail != pending
        ):
            # someone moved the ring out from under the session
            return self._reference_feed(out)
        return self._planned_feed(out)

    def _preamble(self, out: SamplerOutput) -> DriverResult | None:
        """Account the stream and handle the inert/empty cases (shared
        by both feed implementations); None means 'proceed'."""
        self.total_collisions += out.n_collisions
        n = out.n_kept
        self.total_input += n
        if self.inert:
            # session armed but inert: everything is lost; a one-off
            # fixed cost covers the armed-but-idle monitoring machinery
            self.total_lost += n
            idle = 0.0
            if n and not self._idle_charged:
                idle = self.cost.idle_overhead_cycles
                self._idle_charged = True
            return DriverResult(
                batch=_NO_SAMPLES,
                n_input=n,
                n_written=0,
                n_lost_stall=n,
                n_wakeups=0,
                overhead_cycles=idle,
                truncated_records=0,
            )
        if n == 0:
            return DriverResult(
                batch=_NO_SAMPLES,
                n_input=0,
                n_written=0,
                n_lost_stall=0,
                n_wakeups=0,
                overhead_cycles=0.0,
                truncated_records=0,
            )
        if out.records is None:
            raise SpeError("a working session needs the sampler's encoded records")
        return None

    def _reference_feed(self, out: SamplerOutput) -> DriverResult:
        """Scalar reference for :meth:`feed`: the original per-watermark
        loop, retained verbatim for differential testing (and as the
        fallback for ring geometries the planner does not model)."""
        aux = self.event.aux
        ring = self.event.ring
        assert aux is not None and ring is not None
        early = self._preamble(out)
        if early is not None:
            return early
        n = out.n_kept
        encoded = out.records

        wm_rec = max(1, aux.watermark // RECORD_SIZE)
        loss_window = self._loss_window
        delivered: list[SampleBatch] = []
        aux_records: list[AuxRecord] = []
        overhead = 0.0
        wakeups_before = self.total_wakeups
        lost = 0
        truncated = 0
        decode_records = 0
        decode_valid = 0
        decode_skipped = 0

        i = 0
        while i < n:
            # drop samples torn by a previous restart (may span calls)
            if self._pending_loss:
                skip = min(self._pending_loss, n - i)
                self._pending_loss -= skip
                lost += skip
                i += skip
                self._prev_lost = self._prev_lost or skip > 0
                continue
            take = min(wm_rec - self._pending_rec, n - i)
            chunk = encoded[i : i + take].reshape(-1)
            accepted = aux.write(chunk)
            if accepted != chunk.shape[0]:
                raise SpeError("aux overflow despite watermark-paced writes")
            self._pending_rec += take
            i += take
            # consumer-side processing: every record written during the
            # run is decoded during the run (watermark wakeups plus the
            # monitor's periodic epoll timeout)
            overhead += take * self.cost.user_record_cycles
            if self._pending_rec >= wm_rec:
                got, stats, cost = self._service(aux, ring, aux_records, charge=True)
                if stats.n_records and self._prev_lost:
                    truncated += 1
                self._prev_lost = False
                delivered.append(got)
                decode_records += stats.n_records
                decode_valid += stats.n_valid
                decode_skipped += stats.n_skipped
                overhead += cost
                self._pending_rec = 0
                self._pending_loss = loss_window

        result_batch = SampleBatch.concat(delivered)
        n_lost_now = lost
        self.total_lost += n_lost_now
        self.total_written += n - n_lost_now
        return DriverResult(
            batch=result_batch,
            n_input=n,
            n_written=n - n_lost_now,
            n_lost_stall=n_lost_now,
            n_wakeups=self.total_wakeups - wakeups_before,
            overhead_cycles=overhead,
            truncated_records=truncated,
            decode=DecodeStats(
                n_records=decode_records,
                n_valid=decode_valid,
                n_skipped=decode_skipped,
                trailing_bytes=0,
            ),
            aux_records=aux_records,
        )

    def _planned_feed(self, out: SamplerOutput) -> DriverResult:
        """Epoch-planned :meth:`feed`: one plan, bulk buffer round-trips.

        Executes the :class:`FeedPlan` with one paced aux-buffer stream
        of the sampler's encoded rows (:meth:`AuxBuffer.stream_paced`),
        one packed ring write, and one decode over every serviced byte —
        the bytes still physically round-trip the aux ring, just without
        a Python iteration per watermark crossing.  A feed that crosses
        no watermark builds no plan: it drops the carried torn prefix and
        writes the rest to the ring in one :meth:`AuxBuffer.write` (the
        ring holds only the sub-watermark carry, so nothing overflows).
        """
        aux = self.event.aux
        ring = self.event.ring
        assert aux is not None and ring is not None
        early = self._preamble(out)
        if early is not None:
            return early
        records = out.records
        n = records.shape[0]

        wm_rec = max(1, aux.watermark // RECORD_SIZE)
        urc = self.cost.user_record_cycles
        torn = min(self._pending_loss, n)
        written = n - torn
        if written < wm_rec - self._pending_rec:
            if written and aux.write(records[torn:].reshape(-1)) != (
                written * RECORD_SIZE
            ):
                raise SpeError("aux overflow below the watermark")
            self._pending_rec += written
            self._pending_loss -= torn
            self.total_lost += torn
            self.total_written += written
            self._prev_lost = self._prev_lost or torn > 0
            return DriverResult(
                batch=_NO_SAMPLES,
                n_input=n,
                n_written=written,
                n_lost_stall=torn,
                n_wakeups=0,
                overhead_cycles=written * urc if written else 0.0,
                truncated_records=0,
                decode=_NO_DECODE,
            )

        loss_window = self._loss_window
        plan = plan_feed_epochs(
            n, wm_rec, self._pending_rec, self._pending_loss, loss_window
        )
        n_services = plan.n_services
        wm_bytes = wm_rec * RECORD_SIZE
        carry_rec = self._pending_rec
        self._pending_rec = plan.pending_rec_end
        self._pending_loss = plan.pending_loss_end
        self.total_lost += plan.lost
        self.total_written += plan.written

        rows = records[feed_written_mask(plan)]
        first_lost = self._prev_lost or plan.d0 > 0
        first_flags = PERF_AUX_FLAG_TRUNCATED if first_lost else 0
        later_flags = PERF_AUX_FLAG_TRUNCATED if loss_window > 0 else 0
        if self.total_collisions and not self._announced_collisions:
            first_flags |= PERF_AUX_FLAG_COLLISION
            self._announced_collisions = True
        # bytes drained this feed: the sub-watermark carry already in the
        # ring plus this feed's writes, minus the new trailing carry — the
        # carried view must be decoded *before* the bulk write below can
        # lap it; decode_stream consumes eagerly and never materialises
        # the concatenated stream
        served = rows[: n_services * wm_rec - carry_rec]
        chunks = []
        if carry_rec:
            chunks.append(aux.read_view(aux.tail, carry_rec * RECORD_SIZE))
        chunks.append(served.reshape(-1))
        got, stats = decode_stream(chunks)
        # every drain is (signal_base + k*watermark, watermark) — the
        # signals come from one arange, not a tuple per wakeup
        base = aux.signal_base
        aux.stream_paced(
            rows.reshape(-1),
            n_drains=n_services,
            drain_bytes=wm_bytes,
            return_signals=False,
        )
        offsets = np.uint64(base) + np.arange(
            n_services, dtype=np.uint64
        ) * np.uint64(wm_bytes)
        flags = np.full(n_services, later_flags, dtype=np.uint64)
        flags[0] = first_flags
        ring.write_records_packed(pack_aux_records(offsets, wm_bytes, flags))
        self.event.wakeups += n_services
        self.total_wakeups += n_services
        self._prev_lost = plan.d_tail > 0

        # overhead accumulates in the reference's exact order (per-epoch
        # record processing, then the service IRQ): np.cumsum runs the
        # same sequential float64 additions, so the result is bit-equal
        terms = np.empty(2 * n_services + 1, dtype=np.float64)
        terms[0] = plan.w_first * urc
        terms[1 : 2 * n_services : 2] = self.cost.irq_cycles
        terms[2 : 2 * n_services : 2] = wm_rec * urc
        terms[2 * n_services] = plan.w_tail * urc
        return DriverResult(
            batch=got,
            n_input=n,
            n_written=plan.written,
            n_lost_stall=plan.lost,
            n_wakeups=n_services,
            overhead_cycles=float(np.cumsum(terms)[-1]),
            truncated_records=int(first_lost)
            + (n_services - 1) * int(loss_window > 0),
            decode=DecodeStats(
                n_records=stats.n_records,
                n_valid=stats.n_valid,
                n_skipped=stats.n_skipped,
                trailing_bytes=0,
            ),
            aux_records=AuxRecordBatch(
                offsets,
                np.full(n_services, wm_bytes, dtype=np.uint64),
                flags,
            ),
        )

    def flush(self) -> DriverResult:
        """End-of-run drain of the sub-watermark remainder (uncharged)."""
        aux = self.event.aux
        ring = self.event.ring
        assert aux is not None and ring is not None
        aux_records: list[AuxRecord] = []
        if not self.working or aux.pending_signal() <= 0:
            return DriverResult(
                batch=_NO_SAMPLES,
                n_input=0,
                n_written=0,
                n_lost_stall=0,
                n_wakeups=0,
                overhead_cycles=0.0,
                truncated_records=0,
            )
        got, stats, _cost = self._service(aux, ring, aux_records, charge=False)
        self._pending_rec = 0
        self._prev_lost = False
        return DriverResult(
            batch=got,
            n_input=0,
            n_written=0,
            n_lost_stall=0,
            n_wakeups=1,
            overhead_cycles=0.0,
            truncated_records=0,
            decode=stats,
            aux_records=aux_records,
        )

    def process(self, out: SamplerOutput) -> DriverResult:
        """Convenience: feed one stream and flush (single-phase use).

        The flush's delivered samples are merged into the returned batch;
        its drain stays uncharged, matching the paper's measurement
        methodology.
        """
        res = self.feed(out)
        tail = self.flush()
        merged = SampleBatch.concat([res.batch, tail.batch])
        return DriverResult(
            batch=merged,
            n_input=res.n_input,
            n_written=res.n_written,
            n_lost_stall=res.n_lost_stall,
            n_wakeups=res.n_wakeups + tail.n_wakeups,
            overhead_cycles=res.overhead_cycles,
            truncated_records=res.truncated_records,
            decode=res.decode,
            aux_records=res.aux_records + tail.aux_records,
        )


@dataclass(frozen=True)
class ThrottleModel:
    """Sampling throttling at high core counts (paper Fig. 10-11).

    The paper observes "a substantial increase in sampling throttling at
    a high thread count" and a corresponding accuracy dip.  The per-core
    interrupt rates involved are far below perf's kernel rate limiter, so
    the effect is modelled as PMU/interrupt-fabric contention: beyond an
    onset thread count, a fraction of samples (growing linearly with the
    thread count, reaching ``peak_fraction`` at ``peak_threads``) is
    dropped, and throttle events are emitted in proportion.
    """

    onset_threads: int = 48
    peak_threads: int = 128
    peak_fraction: float = 0.035

    def throttled_fraction(self, irq_rate_hz: float, n_threads: int) -> float:
        """Fraction of samples lost to throttling.

        ``irq_rate_hz`` gates the effect: a session that produced no
        interrupts (tiny sample volume) is never throttled.
        """
        if irq_rate_hz < 0 or n_threads <= 0:
            raise SpeError("need irq_rate >= 0 and n_threads >= 1")
        if irq_rate_hz == 0 or n_threads <= self.onset_threads:
            return 0.0
        span = max(1, self.peak_threads - self.onset_threads)
        frac = self.peak_fraction * (n_threads - self.onset_threads) / span
        return min(frac, 1.0)

    def throttle_events(
        self, irq_rate_hz: float, n_threads: int, duration_s: float
    ) -> int:
        """Number of PERF_RECORD_THROTTLE events over the run."""
        frac = self.throttled_fraction(irq_rate_hz, n_threads)
        if frac <= 0.0 or duration_s <= 0:
            return 0
        # one throttle/unthrottle pair per throttled buffer service
        return max(1, int(frac * irq_rate_hz * duration_s))
