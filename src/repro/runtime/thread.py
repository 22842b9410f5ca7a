"""Simulated threads.

A :class:`SimThread` is the unit NMO profiles per-core: it is pinned to a
core (OpenMP-style static binding, as the paper's experiments use), has a
private cycle clock, and accumulates op counts that feed the PMU.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import MachineError


@dataclass
class SimThread:
    """One application thread pinned to one core."""

    tid: int
    core: int
    cycles: float = 0.0
    ops_retired: int = 0
    mem_ops_retired: int = 0
    flops_retired: int = 0
    #: extra cycles injected by profiling (interrupts, consumer work)
    overhead_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.tid < 0 or self.core < 0:
            raise MachineError("tid and core must be non-negative")

    def advance(self, cycles: float) -> None:
        if cycles < 0:
            raise MachineError("thread clock cannot move backwards")
        self.cycles += cycles

    def charge_overhead(self, cycles: float) -> None:
        """Record profiling-induced cycles (also advances the clock)."""
        if cycles < 0:
            raise MachineError("overhead must be >= 0")
        self.overhead_cycles += cycles
        self.cycles += cycles

    def retire(self, n_ops: int, n_mem: int = 0, n_flops: int = 0) -> None:
        if min(n_ops, n_mem, n_flops) < 0 or n_mem + n_flops > n_ops:
            raise MachineError("inconsistent retire counts")
        self.ops_retired += n_ops
        self.mem_ops_retired += n_mem
        self.flops_retired += n_flops


@dataclass
class ThreadTeam:
    """An OpenMP-style team of threads pinned to consecutive cores."""

    n_threads: int
    threads: list[SimThread] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.n_threads <= 0:
            raise MachineError("team needs at least one thread")
        if not self.threads:
            self.threads = [SimThread(tid=i, core=i) for i in range(self.n_threads)]
        if len(self.threads) != self.n_threads:
            raise MachineError("thread list does not match n_threads")

    def __iter__(self):
        return iter(self.threads)

    def __getitem__(self, i: int) -> SimThread:
        return self.threads[i]

    @property
    def max_cycles(self) -> float:
        """Team wall-clock: the slowest thread (implicit barrier)."""
        return max(t.cycles for t in self.threads)

    def run_phase(
        self,
        n_active: int,
        cycles: float,
        n_ops: int,
        n_mem: int = 0,
        n_flops: int = 0,
        overheads: Sequence[float] | None = None,
    ) -> None:
        """Run threads ``0 .. n_active-1`` through one phase.

        Each thread is charged its profiling overhead ``overheads[i]``
        (none if omitted), then advances ``cycles`` and retires the
        phase's ops, with the float additions in that order, exactly as
        :meth:`SimThread.charge_overhead`, :meth:`~SimThread.advance` and
        :meth:`~SimThread.retire` would; their checks run once.
        """
        if not 0 <= n_active <= self.n_threads:
            raise MachineError(
                f"{n_active} active threads in a team of {self.n_threads}"
            )
        if cycles < 0:
            raise MachineError("thread clock cannot move backwards")
        if min(n_ops, n_mem, n_flops) < 0 or n_mem + n_flops > n_ops:
            raise MachineError("inconsistent retire counts")
        if overheads is None:
            overheads = [0.0] * n_active
        elif len(overheads) != n_active:
            raise MachineError("need one overhead per active thread")
        elif n_active and min(overheads) < 0:
            raise MachineError("overhead must be >= 0")
        for t, extra in zip(self.threads[:n_active], overheads):
            t.overhead_cycles += extra
            t.cycles = t.cycles + extra + cycles
            t.ops_retired += n_ops
            t.mem_ops_retired += n_mem
            t.flops_retired += n_flops

    def barrier(self) -> None:
        """Align every thread's clock to the slowest (OpenMP join)."""
        m = self.max_cycles
        for t in self.threads:
            t.cycles = m

    @property
    def total_overhead_cycles(self) -> float:
        return sum(t.overhead_cycles for t in self.threads)

    @property
    def total_ops(self) -> int:
        return sum(t.ops_retired for t in self.threads)

    @property
    def total_mem_ops(self) -> int:
        return sum(t.mem_ops_retired for t in self.threads)

    @property
    def total_flops(self) -> int:
        return sum(t.flops_retired for t in self.threads)
