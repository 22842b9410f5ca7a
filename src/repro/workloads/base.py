"""Workload framework: phase-structured, closed-form application models.

The paper evaluates five applications (STREAM, Rodinia CFD and BFS,
CloudSuite PageRank and In-memory Analytics).  Their relevant behaviour —
for every figure in the evaluation — is fully determined by:

* the **data objects** they allocate (sizes, when touched/freed),
* a sequence of **phases**, each with a per-thread operation count, an
  op-mix (memory/store/flop fractions), a locality mixture
  (:class:`~repro.machine.statcache.AccessClass`), and a deterministic
  **address function** mapping memory-op index -> virtual address,
* per-phase timing (cycles-per-op) and DRAM pressure.

A workload therefore never materialises its op stream.  The SPE sampler
asks a :class:`PhaseOpSource` to describe only the sampled operations
(closed form), which scales to the paper's 10^10..10^11-op runs; small
configurations can still be expanded to real traces for the exact cache
simulator via :meth:`PhaseOpSource.materialise`.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.cpu.ops import FLOP, LOAD, OTHER, STORE, OpChunk
from repro.errors import WorkloadError
from repro.machine.spec import MachineSpec
from repro.machine.statcache import AccessClass, StatCacheModel
from repro.runtime.process import SimProcess

#: Address-function signature: (mem-op indices, thread ids) -> uint64
#: addrs.  The thread ids are one int shared by every index, or an int
#: array of the indices' shape (one call covering several threads'
#: streams); both forms give the same address for the same (index,
#: thread) pair.
AddrFn = Callable[[np.ndarray, "int | np.ndarray"], np.ndarray]
#: Optional kind function: (mem-op indices, thread ids) -> bool store
#: mask, with thread ids as for :data:`AddrFn`.
KindFn = Callable[[np.ndarray, "int | np.ndarray"], np.ndarray]


def hash_uniform(idx: np.ndarray, salt: int | np.ndarray = 0) -> np.ndarray:
    """Deterministic pseudo-uniform floats in [0, 1) from op indices.

    A splitmix64-style mix keeps address/kind functions reproducible
    across calls (the same op index always maps to the same access),
    which property tests rely on.  ``salt`` is one non-negative int or
    an array of them, one per index.
    """
    x = (
        np.asarray(idx, dtype=np.uint64) + np.asarray(salt, dtype=np.uint64)
    ) * np.uint64(0x9E3779B97F4A7C15)
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return x.astype(np.float64) / float(2**64)


def pick_threads(thread, mask: np.ndarray):
    """The thread ids of the ops ``mask`` selects.

    For address and kind functions that hand a subset of their indices
    to a sub-pattern: ``thread`` is one id (kept as is) or an array of
    per-index ids (masked alongside the indices).
    """
    return thread if np.ndim(thread) == 0 else thread[mask]


@dataclass
class Phase:
    """One execution phase of a workload.

    Parameters
    ----------
    name:
        Phase label; doubles as the NMO annotation tag when ``tag`` is
        not given separately.
    n_mem_ops:
        Memory operations *per thread* in this phase.
    group:
        Decoded ops per memory op (one mem op + ``group - 1`` filler
        compute ops); total ops per thread = ``n_mem_ops * group``.
    cpi:
        Average cycles per decoded op (sets phase duration and the SPE
        sampling gap in cycles).
    store_fraction:
        Probability a memory op is a store (ignored if ``kind_fn``).
    flops_per_group:
        How many of each group's filler ops are floating-point.
    classes:
        Locality mixture driving the statistical cache model.
    addr_fn:
        Deterministic memory-op index -> virtual address map.
    kind_fn:
        Optional exact store/load pattern (STREAM's b,c,a cycle).
    dram_latency_scale:
        Loaded-latency multiplier for DRAM accesses in this phase.
    parallel:
        Whether the phase runs on the whole team or a single thread.
    alloc / touch / free:
        Named capacity events: mappings created at phase start, bytes
        becoming resident linearly across the phase, and mappings
        released at phase end (drives the Fig. 2 capacity view).
    dram_bytes_override:
        Explicit per-phase DRAM traffic (whole team) for the bandwidth
        view; computed from ``classes`` when None.
    tag:
        NMO annotation tag covering this phase, if any.
    """

    name: str
    n_mem_ops: int
    cpi: float
    addr_fn: AddrFn
    classes: list[AccessClass]
    group: int = 2
    store_fraction: float = 0.3
    flops_per_group: int = 0
    kind_fn: KindFn | None = None
    dram_latency_scale: float = 1.0
    parallel: bool = True
    alloc: dict[str, int] = field(default_factory=dict)
    touch: dict[str, int] = field(default_factory=dict)
    free: list[str] = field(default_factory=list)
    dram_bytes_override: float | None = None
    tag: str | None = None
    pc_base: int = 0x400000
    #: SLC capacity sharers for the stat-cache model; None means the
    #: participating thread count (private working sets).  Workloads with
    #: a *shared* read-mostly structure (BFS's graph) set 1: the SLC
    #: holds one copy regardless of thread count.
    slc_sharers: int | None = None

    def __post_init__(self) -> None:
        if self.n_mem_ops < 0:
            raise WorkloadError("n_mem_ops must be >= 0")
        if self.group < 1:
            raise WorkloadError("group must be >= 1")
        if self.cpi <= 0:
            raise WorkloadError("cpi must be positive")
        if not 0.0 <= self.store_fraction <= 1.0:
            raise WorkloadError("store_fraction must be in [0, 1]")
        if not 0 <= self.flops_per_group < self.group:
            raise WorkloadError("flops_per_group must fit in the filler ops")
        if self.dram_latency_scale < 1.0:
            raise WorkloadError("dram_latency_scale must be >= 1")
        if not self.classes:
            raise WorkloadError("phase needs at least one access class")

    @property
    def n_ops(self) -> int:
        """Decoded ops per participating thread."""
        return self.n_mem_ops * self.group

    def duration_cycles(self) -> float:
        """Per-thread phase duration (all participants run in lockstep)."""
        return self.n_ops * self.cpi

    def mem_fraction(self) -> float:
        return 1.0 / self.group

    def mem_slots(self, mem_idx: np.ndarray) -> np.ndarray:
        """Slot of each op group's memory op within the group.

        The slot is pseudo-randomised per group.  Real instruction
        streams are not strictly periodic; a fixed slot would alias with
        period-divisible sampling intervals and bias the op-type mix of
        the samples (the exact artefact SPE's hardware interval
        perturbation exists to counter).  A hash that rounds up to 1.0
        gives slot ``group``, which no op occupies: that group has no
        memory op.
        """
        return (hash_uniform(mem_idx, salt=229) * self.group).astype(np.int64)


class PhaseOpSource:
    """Closed-form :class:`~repro.spe.sampler.OpSource` for one phase/thread.

    :meth:`ops_at` also describes other threads' streams of the same
    phase when given their thread ids, which lets one call cover every
    thread's sampled positions.

    ``placement`` (a :class:`~repro.machine.tiers.PagePlacement`, set by
    :meth:`Workload.attach_tiering`) remaps DRAM-serviced samples to the
    memory tier holding their page, so SPE records carry the tier that
    serviced each access; ``None`` keeps the flat single-tier levels.
    """

    def __init__(
        self,
        phase: Phase,
        thread: int,
        stat: StatCacheModel,
        sharers: int = 1,
        placement=None,
    ) -> None:
        self.phase = phase
        self.thread = thread
        self.stat = stat
        self.sharers = sharers
        self.placement = placement
        self.n_ops = phase.n_ops
        self.cpi = phase.cpi
        self.dram_latency_scale = phase.dram_latency_scale

    def ops_at(self, idx: np.ndarray, rng: np.random.Generator, threads=None):
        """(kinds uint8, addrs uint64) of the ops at ``idx``.

        ``threads`` gives the thread id of each index (an int array of
        ``idx``'s shape); ``None`` means this source's own thread.
        """
        idx = np.asarray(idx, dtype=np.int64)
        thread = self.thread if threads is None else threads
        p = self.phase
        pos = idx % p.group
        mem_idx = idx // p.group
        mem_slot = p.mem_slots(mem_idx)
        is_mem = pos == mem_slot
        kinds = np.full(idx.shape, OTHER, dtype=np.uint8)
        if p.flops_per_group:
            rel = (pos - mem_slot) % p.group
            kinds[(rel >= 1) & (rel <= p.flops_per_group)] = FLOP
        addrs = np.zeros(idx.shape, dtype=np.uint64)
        if is_mem.any():
            mi = mem_idx[is_mem]
            th = pick_threads(thread, is_mem)
            if p.kind_fn is not None:
                stores = p.kind_fn(mi, th)
            else:
                stores = hash_uniform(mi, salt=17) < p.store_fraction
            kinds[is_mem] = np.where(stores, STORE, LOAD)
            addrs[is_mem] = p.addr_fn(mi, th)
        return kinds, addrs

    def levels_at(self, idx, kinds, addrs, rng: np.random.Generator):
        levels = np.zeros(np.asarray(idx).shape, dtype=np.uint8)
        is_mem = (kinds == LOAD) | (kinds == STORE)
        n_mem = int(is_mem.sum())
        if n_mem:
            levels[is_mem] = self.stat.draw_levels(
                self.phase.classes, n_mem, rng, sharers=self.sharers
            )
            if self.placement is not None:
                # tier attribution: a DRAM-serviced sample reports the
                # tier holding its page (DRAM + tier index); a pure
                # post-hoc remap, so the RNG stream is untouched and the
                # placement-free path stays bit-identical
                from repro.machine.hierarchy import MemLevel

                mem_levels = levels[is_mem]
                dram = mem_levels == np.uint8(MemLevel.DRAM)
                if dram.any():
                    mem_addrs = addrs[is_mem]
                    mem_levels[dram] += self.placement.tier_of(mem_addrs[dram])
                    levels[is_mem] = mem_levels
        return levels

    def pcs_at(self, idx: np.ndarray) -> np.ndarray:
        idx = np.asarray(idx, dtype=np.uint64)
        return (self.phase.pc_base + (idx % 4096) * 4).astype(np.uint64)

    def materialise(self, rng: np.random.Generator, limit: int = 2_000_000) -> OpChunk:
        """Expand the full op stream (small configs / exact-cache tests)."""
        if self.n_ops > limit:
            raise WorkloadError(
                f"refusing to materialise {self.n_ops} ops (> {limit}); "
                "use the closed-form sampling path instead"
            )
        idx = np.arange(self.n_ops, dtype=np.int64)
        kinds, addrs = self.ops_at(idx, rng)
        return OpChunk(kinds=kinds, addrs=addrs)


class Workload(abc.ABC):
    """Base class of the five paper applications.

    Subclasses implement :meth:`_build`, allocating named data objects in
    the process address space and appending :class:`Phase` objects via
    :meth:`add_phase`.
    """

    #: registry name, e.g. "stream"
    name: str = "workload"

    def __init__(
        self,
        machine: MachineSpec,
        n_threads: int = 1,
        scale: float = 1.0,
        mem_limit: int | None = None,
        seed: int = 0,
    ) -> None:
        if scale <= 0:
            raise WorkloadError("scale must be positive")
        self.machine = machine
        self.n_threads = n_threads
        self.scale = scale
        self.seed = seed
        self.process = SimProcess(machine, n_threads=n_threads, mem_limit=mem_limit)
        self.stat = StatCacheModel(machine)
        #: page->tier placement set by :meth:`attach_tiering` (None = flat)
        self.placement = None
        self._phases: list[Phase] = []
        self._phase_ids: set[int] = set()
        self._build()
        if not self._phases:
            raise WorkloadError(f"workload {self.name!r} defined no phases")

    def phase_sharers(self, phase: Phase) -> int:
        """SLC sharers used by the stat-cache for this phase."""
        return (
            phase.slc_sharers
            if phase.slc_sharers is not None
            else self.phase_threads(phase)
        )

    def finalise_dram_pressure(self, factor: float = 1.5) -> None:
        """Derive each phase's loaded DRAM latency from its bandwidth demand.

        Called at the end of ``_build``: bandwidth-saturating phases get
        their DRAM latency stretched (``loaded_dram_scale``), which is the
        mechanism behind the SPE sample collisions of paper Fig. 8c —
        STREAM and CFD saturate the memory system, BFS does not.
        """
        from repro.cpu.pipeline import loaded_dram_scale

        for p in self._phases:
            p.dram_latency_scale = loaded_dram_scale(
                self.bandwidth_utilisation(p), factor
            )

    # -- construction helpers -----------------------------------------------------

    @abc.abstractmethod
    def _build(self) -> None:
        """Allocate data objects and define phases."""

    def alloc_object(self, name: str, nbytes: int, populate: bool = False) -> int:
        """Allocate a named data object; returns its base address."""
        m = self.process.address_space.mmap(nbytes, name=name)
        if populate:
            m.touch_all()
        return m.start

    def add_phase(self, phase: Phase) -> None:
        self._phases.append(phase)
        self._phase_ids.add(id(phase))

    # -- structure ----------------------------------------------------------------

    @property
    def phases(self) -> list[Phase]:
        return list(self._phases)

    def phase_threads(self, phase: Phase) -> int:
        return self.n_threads if phase.parallel else 1

    def attach_tiering(self, placement) -> None:
        """Attach a page→tier placement map for tiered-memory profiling.

        Subsequent op sources report DRAM-serviced samples as the tier
        holding their page (see :mod:`repro.machine.tiers`); pass
        ``None`` to detach and restore flat single-tier levels.
        """
        self.placement = placement

    def op_source(self, phase: Phase, thread: int) -> PhaseOpSource:
        if id(phase) not in self._phase_ids:
            raise WorkloadError("phase does not belong to this workload")
        if not 0 <= thread < self.phase_threads(phase):
            raise WorkloadError(f"thread {thread} not active in phase {phase.name}")
        return PhaseOpSource(
            phase, thread, self.stat, sharers=self.phase_sharers(phase),
            placement=self.placement,
        )

    # -- aggregates (the "perf stat" ground truth) -----------------------------------

    def total_mem_ops(self) -> int:
        """Team-wide retired loads+stores (the Eq. 1 ``mem_counted``)."""
        return sum(p.n_mem_ops * self.phase_threads(p) for p in self._phases)

    def total_ops(self) -> int:
        return sum(p.n_ops * self.phase_threads(p) for p in self._phases)

    def total_flops(self) -> int:
        return sum(
            p.n_mem_ops * p.flops_per_group * self.phase_threads(p)
            for p in self._phases
        )

    def baseline_cycles(self) -> float:
        """Per-thread wall cycles without profiling (phases sequential)."""
        return sum(p.duration_cycles() for p in self._phases)

    def baseline_seconds(self) -> float:
        return self.baseline_cycles() / self.machine.frequency_hz

    def phase_spans(self) -> list[tuple[Phase, float, float]]:
        """(phase, start_s, end_s) under baseline timing."""
        out = []
        t = 0.0
        for p in self._phases:
            d = p.duration_cycles() / self.machine.frequency_hz
            out.append((p, t, t + d))
            t += d
        return out

    # -- temporal capacity model -------------------------------------------------------

    def rss_at(self, t_seconds: np.ndarray) -> np.ndarray:
        """Resident set size (bytes) at given times, from phase metadata.

        Bytes in ``phase.touch`` become resident linearly across the
        phase; ``phase.free`` releases whole objects at phase end.  This
        is the ground truth the capacity profiler samples (Fig. 2).
        """
        t = np.atleast_1d(np.asarray(t_seconds, dtype=np.float64))
        rss = np.zeros(t.shape, dtype=np.float64)
        for phase, t0, t1 in self.phase_spans():
            dur = max(t1 - t0, 1e-12)
            frac = np.clip((t - t0) / dur, 0.0, 1.0)
            touched = float(sum(phase.touch.values()))
            rss += frac * touched
            if phase.free:
                freed = float(
                    sum(
                        self.process.address_space.region(n).length
                        for n in phase.free
                    )
                )
                rss -= (t >= t1) * freed
        return rss

    # -- temporal bandwidth model -------------------------------------------------------

    def phase_dram_bytes(self, phase: Phase) -> float:
        """Team DRAM traffic of a phase (bytes)."""
        if phase.dram_bytes_override is not None:
            return float(phase.dram_bytes_override)
        frac = self.stat.dram_fraction(
            phase.classes, sharers=self.phase_sharers(phase)
        )
        n_mem = phase.n_mem_ops * self.phase_threads(phase)
        return n_mem * frac * self.machine.line_size

    def phase_bandwidth(self, phase: Phase) -> float:
        """Achieved DRAM bandwidth of a phase (bytes/second, rooflined)."""
        dur = phase.duration_cycles() / self.machine.frequency_hz
        if dur <= 0:
            return 0.0
        demand = self.phase_dram_bytes(phase) / dur
        return min(demand, self.machine.dram.peak_bandwidth)

    def bandwidth_utilisation(self, phase: Phase) -> float:
        """Demand / peak (may exceed 1 when the roofline saturates)."""
        dur = phase.duration_cycles() / self.machine.frequency_hz
        if dur <= 0:
            return 0.0
        return (self.phase_dram_bytes(phase) / dur) / self.machine.dram.peak_bandwidth

    # -- tags ------------------------------------------------------------------------

    def tagged_objects(self) -> list[tuple[str, int, int]]:
        """(name, start, end) of the data objects for ``nmo_tag_addr``."""
        return self.process.address_space.layout()

    def tags(self) -> list[str]:
        """Distinct phase tags, in first-appearance order."""
        seen: list[str] = []
        for p in self._phases:
            t = p.tag or p.name
            if t not in seen:
                seen.append(t)
        return seen
