"""Simulated ``perf_event_open`` and the PMU registry.

NMO opens ARM SPE by passing an attribute struct whose ``type`` is the
dynamic PMU number of the SPE device — ``0x2c`` on the paper's testbed —
and whose ``config`` carries the SPE filter bits (paper §IV-A).  This
module reproduces that control path:

* :class:`PerfEventAttr` — the subset of ``perf_event_attr`` NMO uses,
* :class:`PerfEvent` — the "file descriptor": ring/aux mmap, ioctls,
  counter reads,
* :class:`PerfSubsystem` — per-machine syscall surface and fd table.

Validation mirrors the kernel's error behaviour (``ENOENT`` for an
unknown PMU type, ``EINVAL`` for bad buffer sizes) so NMO's error paths
can be exercised in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cpu.clock import DEFAULT_CNTFRQ_HZ, calc_mult_shift
from repro.errors import PerfError
from repro.kernel.aux_buffer import AuxBuffer
from repro.kernel.counters import CounterEvent, PmuCounter
from repro.kernel.ring_buffer import RingBuffer
from repro.machine.spec import MachineSpec

# Static perf type numbers (uapi)
PERF_TYPE_HARDWARE = 0
PERF_TYPE_SOFTWARE = 1
PERF_TYPE_RAW = 4

#: Dynamic PMU type of the ARM SPE device on the paper's testbed (§IV-A:
#: "The type field is set to the hex value 0x2c").
ARM_SPE_PMU_TYPE = 0x2C

# ioctl request numbers (uapi values, truncated to the ones NMO uses)
PERF_EVENT_IOC_ENABLE = 0x2400
PERF_EVENT_IOC_DISABLE = 0x2401
PERF_EVENT_IOC_RESET = 0x2403


@dataclass
class PerfEventAttr:
    """The fields of ``perf_event_attr`` used by NMO."""

    type: int
    config: int = 0
    sample_period: int = 0
    aux_watermark: int = 0
    disabled: bool = True
    exclude_kernel: bool = True
    #: counting-event selector for PERF_TYPE_HARDWARE/RAW opens
    counter_event: CounterEvent | None = None

    def validate(self) -> None:
        if self.type < 0:
            raise PerfError("negative attr.type")
        if self.sample_period < 0:
            raise PerfError("negative sample_period")
        if self.aux_watermark < 0:
            raise PerfError("negative aux_watermark")


class PerfEvent:
    """An open perf event: the object behind the returned fd."""

    def __init__(self, fd: int, attr: PerfEventAttr, pid: int, cpu: int,
                 machine: MachineSpec) -> None:
        self.fd = fd
        self.attr = attr
        self.pid = pid
        self.cpu = cpu
        self.machine = machine
        self.enabled = not attr.disabled
        self.ring: RingBuffer | None = None
        self.aux: AuxBuffer | None = None
        self.counter = PmuCounter(attr.counter_event) if attr.counter_event else None
        #: number of wakeups delivered (poll/epoll edge count)
        self.wakeups = 0

    # -- mmap ---------------------------------------------------------------------

    def mmap_ring(self, n_pages: int) -> RingBuffer:
        """Map the (N+1)-page ring: page 0 metadata + N data pages.

        ``n_pages`` counts the *data* pages (the paper's "ring buffer of
        (N+1) pages" with N data pages); it must be a power of two, as the
        kernel requires.
        """
        if self.ring is not None:
            raise PerfError("ring buffer already mapped", "EBUSY")
        if n_pages <= 0 or n_pages & (n_pages - 1):
            raise PerfError(
                f"ring data pages must be a power of two, got {n_pages}"
            )
        self.ring = RingBuffer(n_pages=n_pages, page_size=self.machine.page_size)
        # publish timescale conversion parameters for the SPE timestamps
        mult, shift = calc_mult_shift(DEFAULT_CNTFRQ_HZ)
        self.ring.meta.time_mult = mult
        self.ring.meta.time_shift = shift
        self.ring.meta.time_zero = 0
        return self.ring

    def mmap_aux(self, n_pages: int) -> AuxBuffer:
        """Map the SPE aux area; requires the ring to exist (real ABI)."""
        if n_pages <= 0 or n_pages & (n_pages - 1):
            raise PerfError(
                f"aux pages must be a power of two, got {n_pages}"
            )
        watermark = self.attr.aux_watermark or None
        return self.attach_aux(AuxBuffer(
            n_pages=n_pages, page_size=self.machine.page_size, watermark=watermark
        ))

    def attach_aux(self, aux: AuxBuffer) -> AuxBuffer:
        """Map a prebuilt buffer as the aux area: one whose page count
        or watermark the caller fixes (the Fig. 9 sweep's sub-MiB
        sizes), where :meth:`mmap_aux` takes a power of two and the
        attr's watermark."""
        if self.ring is None:
            raise PerfError("aux area requires the ring buffer first", "EINVAL")
        if self.aux is not None:
            raise PerfError("aux buffer already mapped", "EBUSY")
        self.aux = aux
        self.ring.meta.aux_offset = (1 + self.ring.n_pages) * self.machine.page_size
        self.ring.meta.aux_size = aux.size
        return aux

    # -- ioctl / read ----------------------------------------------------------------

    def ioctl(self, request: int) -> None:
        if request == PERF_EVENT_IOC_ENABLE:
            self.enabled = True
        elif request == PERF_EVENT_IOC_DISABLE:
            self.enabled = False
        elif request == PERF_EVENT_IOC_RESET:
            if self.counter is not None:
                self.counter.reset()
        else:
            raise PerfError(f"unsupported ioctl 0x{request:x}", "ENOTTY")

    def read(self) -> int:
        """Read the counter value (counting events only)."""
        if self.counter is None:
            raise PerfError("read() on a sampling event", "EINVAL")
        return self.counter.value

    def count(self, n: int) -> None:
        """Kernel-side increment helper for counting events."""
        if self.counter is not None and self.enabled:
            self.counter.add(n)

    @property
    def readable(self) -> bool:
        """poll()/epoll readiness: unread data in the ring buffer."""
        return self.ring is not None and self.ring.readable

    @property
    def is_spe(self) -> bool:
        return self.attr.type == ARM_SPE_PMU_TYPE


class PerfSubsystem:
    """Per-machine perf syscall surface (fd table + PMU registry)."""

    def __init__(self, machine: MachineSpec) -> None:
        self.machine = machine
        self._next_fd = 3  # 0/1/2 are stdio, as on a real process
        self.events: dict[int, PerfEvent] = {}

    def perf_event_open(
        self, attr: PerfEventAttr, pid: int = 0, cpu: int = -1
    ) -> PerfEvent:
        """Open an event; raises :class:`PerfError` like the syscall fails.

        SPE events must be opened per-CPU (``cpu >= 0``) with a sampling
        period, and only exist on machines whose PMU advertises SPE.
        """
        attr.validate()
        if attr.type == ARM_SPE_PMU_TYPE:
            if not self.machine.has_spe:
                raise PerfError("no SPE PMU on this machine", "ENOENT")
            if cpu < 0:
                raise PerfError("SPE events are per-CPU; need cpu >= 0", "EINVAL")
            if cpu >= self.machine.n_cores:
                raise PerfError(f"cpu {cpu} beyond machine cores", "EINVAL")
            if attr.sample_period <= 0:
                raise PerfError("SPE requires a positive sample_period", "EINVAL")
        elif attr.type in (PERF_TYPE_HARDWARE, PERF_TYPE_RAW):
            if attr.counter_event is None:
                raise PerfError("counting event needs counter_event", "EINVAL")
        else:
            raise PerfError(f"unknown PMU type 0x{attr.type:x}", "ENOENT")
        ev = PerfEvent(self._next_fd, attr, pid, cpu, self.machine)
        self.events[ev.fd] = ev
        self._next_fd += 1
        return ev

    def close(self, ev: PerfEvent) -> None:
        if ev.fd not in self.events:
            raise PerfError(f"double close of fd {ev.fd}", "EBADF")
        del self.events[ev.fd]

    def spe_events(self) -> list[PerfEvent]:
        return [e for e in self.events.values() if e.is_spe]
