"""Architecture backends for NMO's precise sampling (paper §III).

NMO is architecture-agnostic at the API level; internally it selects a
precise-sampling backend per architecture: **ARM SPE** when compiled for
aarch64 and **Intel PEBS** on x86.  The ARM backend is the subject of the
paper; the PEBS backend exists to demonstrate (and test) the portability
claim.

Differences modelled:

* SPE writes to a separate aux buffer with watermark interrupts and
  suffers sample collisions when the tracked op outlives the sampling
  interval; PEBS writes records through the ring-buffer path and does
  not collide (its shadow effects are out of scope here),
* SPE's PMU type is the dynamic ``0x2c``; PEBS uses a raw hardware
  event.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cpu.clock import GenericTimer
from repro.cpu.pipeline import PipelineModel
from repro.errors import NmoError
from repro.kernel.aux_buffer import AuxBuffer
from repro.kernel.perf_event import (
    ARM_SPE_PMU_TYPE,
    PERF_EVENT_IOC_ENABLE,
    PERF_TYPE_RAW,
    PerfEvent,
    PerfEventAttr,
    PerfSubsystem,
)
from repro.machine.spec import MachineSpec
from repro.nmo.env import NmoSettings
from repro.spe.config import SpeConfig
from repro.spe.driver import SpeCostModel, SpeDriver
from repro.spe.sampler import SpeSampler


@dataclass
class CoreSession:
    """One per-core sampling session: perf event + sampler + driver."""

    core: int
    event: PerfEvent
    sampler: SpeSampler
    driver: SpeDriver


class ArmSpeBackend:
    """Precise sampling through the Statistical Profiling Extension."""

    name = "arm_spe"

    def __init__(self, config: SpeConfig | None = None) -> None:
        self.config = config or SpeConfig.loads_and_stores()

    def supports(self, machine: MachineSpec) -> bool:
        return machine.arch == "aarch64" and machine.has_spe

    def open_session(
        self,
        perf: PerfSubsystem,
        core: int,
        settings: NmoSettings,
        pipeline: PipelineModel,
        timer: GenericTimer,
        rng: np.random.Generator,
        cost: SpeCostModel,
    ) -> CoreSession:
        machine = perf.machine
        if not self.supports(machine):
            raise NmoError(f"machine {machine.name!r} has no SPE")
        attr = PerfEventAttr(
            type=ARM_SPE_PMU_TYPE,
            config=self.config.encode(),
            sample_period=settings.period,
        )
        ev = perf.perf_event_open(attr, cpu=core)
        ev.mmap_ring(settings.ring_pages(machine.page_size))
        self._map_aux(ev, settings)
        ev.ioctl(PERF_EVENT_IOC_ENABLE)
        sampler = SpeSampler(settings.period, self.config, pipeline, timer, rng)
        driver = SpeDriver(ev, cost)
        return CoreSession(core=core, event=ev, sampler=sampler, driver=driver)

    def _map_aux(self, ev: PerfEvent, settings: NmoSettings) -> None:
        """Map the session's aux buffer: Table I's size."""
        ev.mmap_aux(settings.aux_pages(ev.machine.page_size))


class FixedAuxPagesBackend(ArmSpeBackend):
    """SPE backend with an explicit aux-buffer page count.

    Table I sizes the aux buffer in whole MiB; the Fig. 9 sweep also
    probes sub-MiB sizes (2-8 pages of 64 KiB), which this backend
    maps in place of Table I's buffer.  ``aux_watermark``
    optionally overrides the ``PERF_RECORD_AUX`` threshold (perf's
    ``aux_watermark`` attr; default half the buffer) — small watermarks
    reproduce the interrupt-bound corner of the Fig. 9 sweep, where the
    wakeup path itself dominates.  Module-level (not a closure) so fig9
    trials can cross a process-pool boundary.
    """

    name = "arm_spe_fixed_aux"

    def __init__(
        self,
        aux_pages: int,
        config: SpeConfig | None = None,
        aux_watermark: int | None = None,
    ) -> None:
        super().__init__(config)
        if aux_pages <= 0:
            raise NmoError(f"aux_pages must be > 0, got {aux_pages}")
        self.aux_pages = aux_pages
        self.aux_watermark = aux_watermark

    def _map_aux(self, ev: PerfEvent, settings: NmoSettings) -> None:
        ev.attach_aux(AuxBuffer(
            n_pages=self.aux_pages,
            page_size=ev.machine.page_size,
            watermark=self.aux_watermark,
        ))


class X86PebsBackend:
    """Precise sampling through PEBS-style ring-buffer records.

    Modelled as SPE without the aux-specific behaviours: no sample
    collisions (``track_collisions=False`` on the sampler) and a smaller
    torn-window loss, since PEBS drains through the generic ring without
    an SPE stop/restart.  Used by NMO's portability tests.
    """

    name = "x86_pebs"

    #: raw event for MEM_TRANS_RETIRED.LOAD_LATENCY-style PEBS sampling
    PEBS_RAW_EVENT = 0x01CD

    def __init__(self, config: SpeConfig | None = None) -> None:
        cfg = config or SpeConfig.loads_and_stores()
        self.config = cfg

    def supports(self, machine: MachineSpec) -> bool:
        return machine.arch == "x86_64"

    def open_session(
        self,
        perf: PerfSubsystem,
        core: int,
        settings: NmoSettings,
        pipeline: PipelineModel,
        timer: GenericTimer,
        rng: np.random.Generator,
        cost: SpeCostModel,
    ) -> CoreSession:
        from repro.kernel.counters import CounterEvent

        machine = perf.machine
        if not self.supports(machine):
            raise NmoError(f"machine {machine.name!r} is not x86")
        attr = PerfEventAttr(
            type=PERF_TYPE_RAW,
            config=self.PEBS_RAW_EVENT,
            sample_period=settings.period,
            counter_event=CounterEvent.MEM_ACCESS,
        )
        ev = perf.perf_event_open(attr, cpu=core)
        ev.mmap_ring(settings.ring_pages(machine.page_size))
        # PEBS has no aux area; give the driver a ring-sized staging area
        ev.mmap_aux(settings.ring_pages(machine.page_size))
        ev.ioctl(PERF_EVENT_IOC_ENABLE)
        sampler = SpeSampler(
            settings.period, self.config, pipeline, timer, rng,
            track_collisions=False,
        )
        pebs_cost = SpeCostModel(
            irq_cycles=cost.irq_cycles,
            user_record_cycles=cost.user_record_cycles,
            service_loss_records=max(1, cost.service_loss_records // 8),
            service_loss_scale=cost.service_loss_scale,
            min_working_pages=1,
            idle_overhead_cycles=cost.idle_overhead_cycles,
            max_irq_rate_hz=cost.max_irq_rate_hz,
        )
        driver = SpeDriver(ev, pebs_cost)
        return CoreSession(core=core, event=ev, sampler=sampler, driver=driver)


def select_backend(machine: MachineSpec) -> ArmSpeBackend | X86PebsBackend:
    """NMO's compile-time backend choice, resolved from the machine."""
    for backend in (ArmSpeBackend(), X86PebsBackend()):
        if backend.supports(machine):
            return backend
    raise NmoError(
        f"no precise-sampling backend for arch {machine.arch!r} "
        f"(SPE available: {machine.has_spe})"
    )
