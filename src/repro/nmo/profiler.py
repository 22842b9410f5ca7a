"""The NMO profiling runtime.

This is the paper's core contribution: an application-transparent,
multi-level memory-centric profiler.  Given a workload (the simulated
application) and the Table I environment settings, :class:`NmoProfiler`

1. opens one precise-sampling session per core (SPE on ARM, PEBS-style
   on x86) with the configured period and buffer sizes,
2. registers the workload's data objects via ``nmo_tag_addr`` and its
   tagged phases via ``nmo_start``/``nmo_stop``,
3. runs the workload phase by phase: the SPE sampler draws every
   thread's samples of a phase and encodes their 64-byte records in one
   step from the closed-form op streams, then per thread the driver
   routes the records through aux/ring buffers (charging interrupt and
   processing cycles to the interrupted thread), and the consumer
   decodes them,
4. tracks capacity (RSS) and bandwidth (bus-event) time series,
5. converts SPE timestamps to perf time via the metadata page
   (``time_zero/shift/mult``) and assembles a :class:`ProfileResult`
   carrying everything the paper's figures need,
6. computes the paper's Eq. 1 sampling accuracy and the time overhead
   against an uninstrumented baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.cpu.clock import GenericTimer
from repro.cpu.pipeline import PipelineModel
from repro.errors import NmoError
from repro.kernel.counters import CounterEvent, CounterGroup, IntervalSeries
from repro.machine.spec import GiB
from repro.nmo.annotations import AnnotationRegistry
from repro.nmo.backends import CoreSession, select_backend
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.timescale import TimescaleConverter
from repro.nmo.tracefile import TraceData
from repro.runtime.thread import ThreadTeam
from repro.spe.driver import SpeCostModel, ThrottleModel
from repro.spe.records import SampleBatch
from repro.spe.sampler import sample_phase
from repro.substrate.codec import register as _substrate
from repro.workloads.base import Workload


@_substrate
@dataclass
class ThreadStats:
    """Per-thread sampling accounting."""

    core: int
    n_selected: int = 0
    n_collisions: int = 0
    n_kept: int = 0
    n_written: int = 0
    n_lost: int = 0
    n_wakeups: int = 0
    overhead_cycles: float = 0.0


@_substrate
@dataclass
class BaselineResult:
    """The uninstrumented reference run (``perf stat`` methodology)."""

    wall_cycles: float
    wall_seconds: float
    mem_counted: int
    total_ops: int
    total_flops: int


@_substrate
@dataclass
class ProfileResult:
    """Everything one profiled run produced."""

    workload: str
    settings: NmoSettings
    n_threads: int
    mem_counted: int
    samples_processed: int
    accuracy: float
    baseline_cycles: float
    profiled_cycles: float
    time_overhead: float
    collisions: int
    wakeups: int
    truncated: int
    throttle_events: int
    throttled_samples: int
    decode_skipped: int
    batch: SampleBatch
    sample_cores: np.ndarray
    sample_times_s: np.ndarray
    per_thread: list[ThreadStats]
    annotations: AnnotationRegistry
    rss_series: tuple[np.ndarray, np.ndarray] | None = None
    bw_series: tuple[np.ndarray, np.ndarray] | None = None
    phase_spans: list[tuple[str, str, float, float]] = field(default_factory=list)

    @property
    def n_samples(self) -> int:
        return len(self.batch)

    def to_trace(self) -> TraceData:
        """Package as NMO's on-disk trace format."""
        samples = {
            "addr": self.batch.addr,
            "t_s": self.sample_times_s,
            "level": self.batch.level,
            "kind": self.batch.kind,
            "total_lat": self.batch.total_lat,
            "core": self.sample_cores,
        }
        meta = {
            "workload": self.workload,
            "period": self.settings.period,
            "n_threads": self.n_threads,
            "accuracy": self.accuracy,
            "time_overhead": self.time_overhead,
            "collisions": self.collisions,
            "mem_counted": self.mem_counted,
            "env": self.settings.to_env(),
            "tags": [
                (t.name, int(t.start), int(t.end))
                for t in self.annotations.address_tags
            ],
            "spans": [
                (s.tag, s.start_s, s.end_s) for s in self.annotations.spans
            ],
        }
        return TraceData(
            name=self.settings.name,
            samples=samples,
            meta=meta,
            rss=self.rss_series,
            bandwidth=self.bw_series,
        )


def sampling_accuracy(mem_counted: int, samples: int, period: int) -> float:
    """Paper Eq. 1: ``1 - |mem - samples*period| / mem`` (clamped to 0)."""
    if mem_counted <= 0:
        raise NmoError("mem_counted must be positive")
    if samples < 0 or period <= 0:
        raise NmoError("need samples >= 0 and period > 0")
    acc = 1.0 - abs(mem_counted - samples * period) / mem_counted
    return max(acc, 0.0)


class NmoProfiler:
    """Profile one workload run under the given NMO settings."""

    def __init__(
        self,
        workload: Workload,
        settings: NmoSettings,
        cost: SpeCostModel | None = None,
        throttle: ThrottleModel | None = None,
        seed: int = 0,
        backend=None,
        bw_interval_s: float | None = None,
    ) -> None:
        self.workload = workload
        self.settings = settings
        self.seed = seed
        self.throttle = throttle or ThrottleModel()
        base_cost = cost or SpeCostModel()
        t = workload.n_threads
        # consumer-side scaling: a single monitor serving few buffers
        # cannot pipeline service passes (bigger torn window); serving
        # many buffers adds per-wakeup bookkeeping (Fig. 10's overhead
        # growth with threads)
        self.cost = SpeCostModel(
            irq_cycles=base_cost.irq_cycles,
            user_record_cycles=base_cost.user_record_cycles * (1.0 + t / 256.0),
            service_loss_records=base_cost.service_loss_records,
            service_loss_scale=base_cost.service_loss_scale * (1.0 + 1.0 / t),
            min_working_pages=base_cost.min_working_pages,
            idle_overhead_cycles=base_cost.idle_overhead_cycles,
            max_irq_rate_hz=base_cost.max_irq_rate_hz,
        )
        self.backend = backend or select_backend(workload.machine)
        self.bw_interval_s = bw_interval_s

    # -- baseline ------------------------------------------------------------------

    def run_baseline(self) -> BaselineResult:
        """The reference run: plain execution + counting PMU events."""
        w = self.workload
        counters = CounterGroup(
            [CounterEvent.MEM_ACCESS, CounterEvent.INSTRUCTIONS, CounterEvent.FP_OPS]
        )
        for phase in w.phases:
            t = w.phase_threads(phase)
            counters.add(CounterEvent.MEM_ACCESS, phase.n_mem_ops * t)
            counters.add(CounterEvent.INSTRUCTIONS, phase.n_ops * t)
            counters.add(
                CounterEvent.FP_OPS, phase.n_mem_ops * phase.flops_per_group * t
            )
        cycles = w.baseline_cycles()
        return BaselineResult(
            wall_cycles=cycles,
            wall_seconds=cycles / w.machine.frequency_hz,
            mem_counted=counters[CounterEvent.MEM_ACCESS],
            total_ops=counters[CounterEvent.INSTRUCTIONS],
            total_flops=counters[CounterEvent.FP_OPS],
        )

    # -- profiled run -----------------------------------------------------------------

    def _sampling_enabled(self) -> bool:
        s = self.settings
        return (
            s.enable
            and s.mode in (NmoMode.SAMPLING, NmoMode.FULL)
            and s.period > 0
        )

    def run(self) -> ProfileResult:
        """Profile the workload once, from a fresh thread team.

        Each core's perf event is open for this run only: it is closed
        once the run has drained it and read its timescale metadata, so
        profiling a workload again leaves no event or buffer behind.
        """
        w = self.workload
        perf = w.process.perf
        pipeline = PipelineModel(w.machine)
        timer = GenericTimer(w.machine.frequency_hz)
        sessions: dict[int, CoreSession] = {}
        try:
            if self._sampling_enabled():
                for core in range(w.n_threads):
                    rng = np.random.default_rng(
                        [self.seed, core, self.settings.period]
                    )
                    sessions[core] = self.backend.open_session(
                        perf, core, self.settings, pipeline, timer, rng,
                        self.cost,
                    )
            return self._profile(sessions)
        finally:
            for sess in sessions.values():
                perf.close(sess.event)

    def _profile(self, sessions: dict[int, CoreSession]) -> ProfileResult:
        """The profiled run, feeding each core's samples to ``sessions``."""
        w = self.workload
        machine = w.machine
        settings = self.settings
        team = w.process.team = ThreadTeam(w.n_threads)
        sampling = self._sampling_enabled()

        ann = AnnotationRegistry()
        for name, start, end in w.tagged_objects():
            ann.nmo_tag_addr(name, start, end)

        stats = [ThreadStats(core=i) for i in range(w.n_threads)]
        batches: list[SampleBatch] = []
        batch_core_ids: list[int] = []
        decode_skipped = 0
        truncated = 0
        phase_spans: list[tuple[str, str, float, float]] = []
        freq = machine.frequency_hz
        # a session's inertness is fixed for the run: its aux buffer and
        # enable state do not change while the run feeds it
        samplers = [sess.sampler for sess in sessions.values()]
        drivers = [sess.driver for sess in sessions.values()]
        encode = [not d.inert for d in drivers]

        open_tag: str | None = None
        for phase in w.phases:
            active = w.phase_threads(phase)
            t0 = team.max_cycles / freq
            tag = phase.tag or phase.name
            if tag != open_tag:
                if open_tag is not None:
                    ann.nmo_stop(t0)
                ann.nmo_start(tag, t0)
                open_tag = tag
            overheads = None
            if sampling:
                outs = sample_phase(
                    samplers[:active],
                    w.op_sources(phase),
                    [t.cycles for t in team.threads[:active]],
                    encode=encode[:active],
                )
                overheads = [0.0] * active
                for tidx, out in enumerate(outs):
                    st = stats[tidx]
                    st.n_selected += out.n_selected
                    if not (out.n_kept or out.n_collisions):
                        # a feed of nothing returns zeros and changes no
                        # session state
                        continue
                    res = drivers[tidx].feed(out)
                    st.n_collisions += out.n_collisions
                    st.n_kept += out.n_kept
                    st.n_written += res.n_written
                    st.n_lost += res.n_lost_stall
                    st.n_wakeups += res.n_wakeups
                    st.overhead_cycles += res.overhead_cycles
                    truncated += res.truncated_records
                    if res.decode is not None:
                        decode_skipped += res.decode.n_skipped
                    if len(res.batch):
                        batches.append(res.batch)
                        batch_core_ids.append(tidx)
                    overheads[tidx] = res.overhead_cycles
            team.run_phase(
                active, phase.duration_cycles(), phase.n_ops, phase.n_mem_ops,
                phase.n_mem_ops * phase.flops_per_group, overheads,
            )
            team.barrier()
            t1 = team.max_cycles / freq
            phase_spans.append((phase.name, tag, t0, t1))
        if open_tag is not None:
            ann.nmo_stop(team.max_cycles / freq)

        # end-of-run drain (not charged; see paper §VII)
        if sampling:
            for tidx, sess in sessions.items():
                res = sess.driver.flush()
                if len(res.batch):
                    batches.append(res.batch)
                    batch_core_ids.append(tidx)

        batch = SampleBatch.concat(batches) if batches else SampleBatch()
        cores = (
            np.repeat(
                np.asarray(batch_core_ids, dtype=np.int32),
                np.asarray([len(b) for b in batches], dtype=np.int64),
            )
            if batches
            else np.zeros(0, dtype=np.int32)
        )

        baseline = self.run_baseline()
        profiled_cycles = team.max_cycles
        duration_s = profiled_cycles / freq

        # perf-style throttling across the whole machine
        throttle_events = 0
        throttled = 0
        total_wakeups = sum(s.n_wakeups for s in stats)
        if sampling and duration_s > 0 and total_wakeups:
            irq_rate = total_wakeups / duration_s
            frac = self.throttle.throttled_fraction(irq_rate, w.n_threads)
            if frac > 0 and len(batch):
                rng = np.random.default_rng([self.seed, 997])
                keep = rng.random(len(batch)) >= frac
                throttled = int((~keep).sum())
                batch = batch.select(keep)
                cores = cores[keep]
            throttle_events = self.throttle.throttle_events(
                irq_rate, w.n_threads, duration_s
            )

        samples_processed = len(batch)
        accuracy = (
            sampling_accuracy(
                baseline.mem_counted, samples_processed, settings.period
            )
            if sampling
            else 0.0
        )
        overhead = (
            (profiled_cycles - baseline.wall_cycles) / baseline.wall_cycles
            if baseline.wall_cycles > 0
            else 0.0
        )

        # timestamps -> perf time -> seconds
        if sampling:
            meta = sessions[0].event.ring.meta  # type: ignore[union-attr]
            conv = TimescaleConverter(meta)
            times_s = np.asarray(conv.to_seconds(batch.ts), dtype=np.float64)
        else:
            times_s = np.zeros(len(batch), dtype=np.float64)

        rss_series = None
        if settings.track_rss:
            rss_series = self._rss_series(duration_s)
        bw_series = None
        if settings.enable and settings.mode in (NmoMode.BANDWIDTH, NmoMode.FULL):
            bw_series = self._bandwidth_series(duration_s)

        return ProfileResult(
            workload=w.name,
            settings=settings,
            n_threads=w.n_threads,
            mem_counted=baseline.mem_counted,
            samples_processed=samples_processed,
            accuracy=accuracy,
            baseline_cycles=baseline.wall_cycles,
            profiled_cycles=profiled_cycles,
            time_overhead=overhead,
            collisions=sum(s.n_collisions for s in stats),
            wakeups=total_wakeups,
            truncated=truncated,
            throttle_events=throttle_events,
            throttled_samples=throttled,
            decode_skipped=decode_skipped,
            batch=batch,
            sample_cores=cores,
            sample_times_s=times_s,
            per_thread=stats,
            annotations=ann,
            rss_series=rss_series,
            bw_series=bw_series,
            phase_spans=phase_spans,
        )

    # -- temporal views ----------------------------------------------------------------

    def _interval(self, duration_s: float) -> float:
        """Sampling interval for temporal series: 1 s at full scale, finer
        for scaled-down runs (>= 100 points across the run)."""
        if self.bw_interval_s is not None:
            return self.bw_interval_s
        if duration_s <= 0:
            return 1.0
        return min(1.0, max(duration_s / 120.0, 1e-9))

    def _rss_series(self, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
        dt = self._interval(duration_s)
        t = np.arange(0.0, max(duration_s, dt), dt)
        return t, self.workload.rss_at(t)

    def _bandwidth_series(self, duration_s: float) -> tuple[np.ndarray, np.ndarray]:
        """Bus-event counting per interval, divided by interval length.

        Each phase's traffic is distributed over the bins it overlaps in
        proportion to the overlap duration, so a bin fully inside a phase
        reads exactly that phase's bandwidth.
        """
        dt = self._interval(duration_s)
        series = IntervalSeries(interval_s=dt)
        for phase, t0, t1 in self.workload.phase_spans():
            nbytes = self.workload.phase_dram_bytes(phase)
            dur = max(t1 - t0, 1e-12)
            rate = min(nbytes / dur, self.workload.machine.dram.peak_bandwidth)
            b0 = int(t0 // dt)
            b1 = int(max(t1 - 1e-12, t0) // dt)
            starts = np.arange(b0, b1 + 1) * dt
            overlap = np.clip(
                np.minimum(t1, starts + dt) - np.maximum(t0, starts), 0.0, dt
            )
            # bin by midpoints: float error on exact bin edges must not
            # push a contribution into the neighbouring bin
            series.add_many(starts + dt / 2, rate * overlap)
        t, v = series.rate_series(until_s=duration_s)
        return t, v

    @staticmethod
    def bandwidth_gibs(series: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
        """Convenience: convert a bytes/s series to GiB/s."""
        t, v = series
        return t, v / GiB
