"""Per-operation pipeline timing model.

Two consumers need per-op latencies:

* the **core timing model** — aggregate cycles for a chunk of ops, with a
  memory-level-parallelism (MLP) overlap factor so streaming workloads do
  not serialise on DRAM latency;
* the **SPE sampler** — a sampled operation occupies SPE's tracking
  machinery for its full pipeline lifetime; if the sampling interval
  elapses before the tracked op completes, the *next* sample collides and
  is dropped (paper §VII, Fig. 8c).  The collision window is exactly the
  per-op latency this module produces.

Latency = issue cost (by op kind) + data-source latency (by MemLevel)
with small multiplicative jitter for realism.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import MachineError
from repro.machine.hierarchy import MemLevel
from repro.machine.spec import MachineSpec
from repro.cpu.ops import LOAD, STORE, OpKind


@dataclass(frozen=True)
class PipelineModel:
    """Latency and throughput parameters of the simulated core.

    ``dispatch_width`` models the superscalar front end: the core retires
    up to that many ops per cycle when nothing stalls.  ``mlp`` is the
    average number of outstanding misses streaming code sustains, used to
    overlap memory latency in aggregate timing.
    """

    spec: MachineSpec
    dispatch_width: int = 2
    issue_cycles: dict = field(
        default_factory=lambda: {
            OpKind.OTHER: 1,
            OpKind.LOAD: 1,
            OpKind.STORE: 1,
            OpKind.BRANCH: 1,
            OpKind.FLOP: 2,
        }
    )
    #: latency jitter fraction (uniform +-) applied per sampled op
    jitter: float = 0.1
    #: dram_scale -> (issue-cost LUT by kind, latency LUT by level),
    #: built on first use (the model is frozen, so they never go stale)
    _luts: dict = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dispatch_width <= 0:
            raise MachineError("dispatch_width must be positive")
        if not 0.0 <= self.jitter < 1.0:
            raise MachineError("jitter must be in [0, 1)")

    # -- per-op latencies (SPE tracking window) ---------------------------------

    def level_latency(self, level: MemLevel | int) -> int:
        """Load-to-use latency of a data source, in core cycles.

        DRAM-class levels resolve through the machine's memory-tier
        table (``MachineSpec.tiers``); on a flat machine every tier
        degenerates to the one DRAM channel's latency.
        """
        level = MemLevel(level)
        lut = {
            MemLevel.L1: self.spec.l1d.latency_cycles,
            MemLevel.L2: self.spec.l2.latency_cycles,
            MemLevel.SLC: self.spec.slc.latency_cycles,
        }
        if level in lut:
            return lut[level]
        return self.spec.tier_latency_cycles(level.tier)

    def _latency_luts(self, dram_scale: float) -> tuple[np.ndarray, np.ndarray]:
        """(issue cost by kind, data-source latency by level) under one
        ``dram_scale``; built once per scale, then shared by every call."""
        luts = self._luts.get(dram_scale)
        if luts is None:
            issue_lut = np.zeros(256, dtype=np.float64)
            for kind, cost in self.issue_cycles.items():
                issue_lut[int(kind)] = cost
            level_lut = np.zeros(int(MemLevel.DRAM_CXL) + 1, dtype=np.float64)
            for lv in MemLevel:
                level_lut[int(lv)] = self.level_latency(lv)
            # queueing stretches every DRAM-class tier: loaded latency
            # scales with channel pressure wherever the line lives
            for lv in MemLevel:
                if lv.is_dram_class:
                    level_lut[int(lv)] *= dram_scale
            luts = self._luts[dram_scale] = (issue_lut, level_lut)
        return luts

    def op_latencies(
        self,
        kinds: np.ndarray,
        levels: np.ndarray | None = None,
        rng: np.random.Generator | None = None,
        dram_scale: float = 1.0,
    ) -> np.ndarray:
        """Total pipeline latency of each op, in cycles (vectorised).

        ``levels`` must be provided for memory ops (same length arrays);
        non-memory ops ignore it.  ``dram_scale`` multiplies the DRAM
        latency to model queueing under bandwidth saturation (the loaded
        latency that drives SPE sample collisions in streaming kernels);
        see :func:`loaded_dram_scale`.
        """
        if dram_scale < 1.0:
            raise MachineError("dram_scale must be >= 1")
        kinds = np.asarray(kinds, dtype=np.uint8)
        issue_lut, level_lut = self._latency_luts(dram_scale)
        lat = issue_lut.take(kinds)
        rows = np.flatnonzero((kinds == LOAD) | (kinds == STORE))
        if rows.size:
            if levels is None:
                raise MachineError("levels required when chunk contains memory ops")
            levels = np.asarray(levels, dtype=np.uint8)
            if levels.shape != kinds.shape:
                raise MachineError("levels array must match kinds shape")
            lat[rows] += level_lut.take(levels.take(rows))
        if rng is not None and self.jitter > 0:
            lat *= rng.uniform(1.0 - self.jitter, 1.0 + self.jitter, size=lat.shape)
        return lat

    # -- aggregate timing --------------------------------------------------------

    def chunk_cycles(
        self,
        n_ops: int,
        n_mem: int,
        mean_mem_latency: float,
        mlp: float = 4.0,
    ) -> float:
        """Cycles to execute ``n_ops`` ops of which ``n_mem`` touch memory.

        Front-end cost is ``n_ops / dispatch_width``; memory stalls add the
        *non-overlapped* share of miss latency: ``n_mem * lat / mlp``.  With
        generous MLP, bandwidth-bound kernels approach front-end limits,
        matching how STREAM behaves on real Neoverse cores.
        """
        if n_ops < 0 or n_mem < 0 or n_mem > n_ops:
            raise MachineError("need 0 <= n_mem <= n_ops")
        if mean_mem_latency < 0 or mlp <= 0:
            raise MachineError("latency must be >= 0 and mlp > 0")
        frontend = n_ops / self.dispatch_width
        stalls = n_mem * mean_mem_latency / mlp
        return frontend + stalls

    def effective_ipc(
        self, n_ops: int, n_mem: int, mean_mem_latency: float, mlp: float = 4.0
    ) -> float:
        """Instructions per cycle implied by :meth:`chunk_cycles`."""
        cyc = self.chunk_cycles(n_ops, n_mem, mean_mem_latency, mlp)
        return n_ops / cyc if cyc > 0 else 0.0


def loaded_dram_scale(
    utilisation: float, factor: float = 1.5, over_factor: float = 0.35
) -> float:
    """DRAM latency multiplier under bandwidth pressure.

    Queueing at the memory controller stretches the effective DRAM
    latency (Mess-style bandwidth-latency curves): quadratically while
    demand stays under the roofline, then linearly in the overload ratio
    once demand exceeds it (requests queue behind an oversubscribed
    channel)::

        scale = 1 + factor * min(u, 1)^2 + over_factor * max(u - 1, 0)

    A saturated STREAM sees several times the unloaded latency, which is
    what pushes the SPE tracking window past the sampling gap at small
    periods and produces the collision curves of paper Fig. 8c; the
    overload term makes collisions *grow with thread count* (Fig. 11).
    Overload is capped at 16x peak demand for sanity.
    """
    if factor < 0 or over_factor < 0:
        raise MachineError("factors must be >= 0")
    u = min(max(utilisation, 0.0), 16.0)
    base = min(u, 1.0)
    return 1.0 + factor * base * base + over_factor * max(u - 1.0, 0.0)
