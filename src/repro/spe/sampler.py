"""The SPE sampling engine.

Implements the hardware flow of paper Fig. 1 for one core:

1. the **sampling interval counter** is loaded with the period and
   decremented per decoded operation; a random perturbation avoids
   lock-step bias (``jitter`` config bit),
2. the selected operation is **tracked** through the pipeline for its
   full latency; if the interval counter fires again while the tracker is
   busy, the *new* sample is discarded — a **sample collision** — before
   filtering, so it costs no buffer space and no processing time
   (paper §VII-A),
3. surviving samples pass the **filter** (operation type, minimum
   latency); NMO's memory profiling keeps loads and stores only,
4. filtered-in samples become 64-byte records destined for the aux
   buffer (handled by :mod:`repro.spe.driver`).

The sampler never materialises the full op stream: it draws sample
*positions* arithmetically and asks an :class:`OpSource` to describe just
those operations, which is what lets the reproduction sample workloads
with 10^10+ operations.  :func:`sample_phase` runs these stages for every
core of one code region at once, describing all cores' positions in one
:meth:`OpSource.ops_at` call.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import BRANCH, LOAD, STORE
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError
from repro.spe.config import SpeConfig
from repro.spe.records import SampleBatch
from repro.spe.refpath import reference_active
from repro.spe.strategies import (
    _renewal_positions,
    check_period,
    get_strategy,
)


class OpSource(Protocol):
    """What the sampler needs to know about one core's op stream.

    Implementations: closed-form workload phases
    (:class:`repro.workloads.base.PhaseOpSource`) and the exact
    trace-driven adapter (:class:`TraceOpSource`).
    """

    #: total decoded operations in this stream
    n_ops: int
    #: average cycles per decoded op (converts op index -> cycles)
    cpi: float
    #: the thread whose stream this is, among its code region's streams
    thread: int

    def ops_at(
        self,
        idx: np.ndarray,
        rng: np.random.Generator,
        threads: np.ndarray | None = None,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(kinds uint8, addrs uint64) of the ops at global indices.

        ``threads`` (an int array of ``idx``'s shape) names the thread
        whose stream each index belongs to, so one call can describe
        the sampled ops of every thread of the region; ``None`` means
        this source's own stream.  A source holding a single stream
        (:class:`TraceOpSource`) ignores it.
        """
        ...

    def levels_at(
        self, idx: np.ndarray, kinds: np.ndarray, addrs: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """MemLevel uint8 per op (0 where not a memory op)."""
        ...

    def pcs_at(self, idx: np.ndarray) -> np.ndarray:
        """Program counter of each op (uint64)."""
        ...


class TraceOpSource:
    """Exact :class:`OpSource` over a materialised execution result."""

    #: a trace is a single stream
    thread = 0

    def __init__(self, kinds: np.ndarray, addrs: np.ndarray,
                 levels: np.ndarray, cpi: float, pc_base: int = 0x400000) -> None:
        self._kinds = np.asarray(kinds, dtype=np.uint8)
        self._addrs = np.asarray(addrs, dtype=np.uint64)
        self._levels = np.asarray(levels, dtype=np.uint8)
        if not (len(self._kinds) == len(self._addrs) == len(self._levels)):
            raise SpeError("kinds/addrs/levels must be equal length")
        if cpi <= 0:
            raise SpeError("cpi must be positive")
        self.n_ops = int(len(self._kinds))
        self.cpi = float(cpi)
        self.pc_base = pc_base

    def ops_at(self, idx, rng, threads=None):
        return self._kinds[idx], self._addrs[idx]

    def levels_at(self, idx, kinds, addrs, rng):
        return self._levels[idx]

    def pcs_at(self, idx):
        return (self.pc_base + (np.asarray(idx, dtype=np.uint64) % 256) * 4).astype(
            np.uint64
        )


def sample_positions(
    n_ops: int,
    period: int,
    jitter: bool,
    rng: np.random.Generator,
    carry: int | None = None,
) -> tuple[np.ndarray, int]:
    """Indices selected by the interval counter, plus the carried counter.

    SPE always perturbs the counter reload slightly — "when the counter
    reaches zero, with some random perturbation added to avoid bias, an
    operation is selected" (paper §II-A) — otherwise periodic code would
    alias with the sampling interval.  The ``jitter`` config bit widens
    that window from the inherent ``period/256`` to ``period/16``.

    ``carry`` is the counter value left over from the previous op stream
    (the hardware counter runs continuously across program phases);
    the second return value is the residue to pass to the next stream.
    """
    check_period(period)
    window = max(2, period // 16) if jitter else max(2, period // 256)

    def draw(k: int) -> np.ndarray:
        return period - rng.integers(0, window, size=k, dtype=np.int64)

    return _renewal_positions(n_ops, draw, period - window, carry)


def _reference_collision_scan(
    select_cycles: np.ndarray, latencies: np.ndarray
) -> tuple[np.ndarray, int]:
    """Scalar reference for :func:`collision_scan`.

    The original O(n) Python loop, retained verbatim: the differential
    suite pins the vectorized scan bit-identical to this implementation.
    """
    n = select_cycles.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), 0
    gaps = np.diff(select_cycles)
    if gaps.size == 0 or gaps.min() >= latencies.max():
        return np.ones(n, dtype=bool), 0  # fast path: no overlap possible
    keep = np.ones(n, dtype=bool)
    t = select_cycles.tolist()
    lat = latencies.tolist()
    busy_until = t[0] + lat[0]
    collisions = 0
    for j in range(1, n):
        if t[j] < busy_until:
            keep[j] = False
            collisions += 1
        else:
            busy_until = t[j] + lat[j]
    return keep, collisions


#: block size for the vectorized successor-map computation
_SCAN_BLOCK = 16384
#: estimated keep fraction below which the lazy per-step search wins
_SCAN_SPARSE_FRAC = 1 / 16


def _successor_blocks(t: np.ndarray, end: np.ndarray) -> np.ndarray:
    """Successor map ``f[j]`` = first index whose select time clears the
    tracker freed by a kept sample at ``j`` (computed vectorized in
    blocks; clamped strictly forward so zero-latency ties cannot stall
    the chain)."""
    n = t.shape[0]
    f = np.empty(n, dtype=np.int64)
    for s in range(0, n, _SCAN_BLOCK):
        eb = end[s : s + _SCAN_BLOCK]
        f[s : s + eb.shape[0]] = np.searchsorted(t, eb, side="left")
    np.maximum(f, np.arange(1, n + 1, dtype=np.int64), out=f)
    return f


def collision_scan(
    select_cycles: np.ndarray, latencies: np.ndarray
) -> tuple[np.ndarray, int]:
    """Greedy in-flight tracking: drop samples that arrive while busy.

    ``select_cycles`` are the (sorted) cycle times at which the interval
    counter fired; ``latencies`` the pipeline lifetime of each selected
    op.  Only a *kept* sample occupies the tracker.  Returns (keep mask,
    number of collisions).

    Bit-identical to :func:`_reference_collision_scan` but never walks
    the full stream in Python.  The key structural fact: because
    ``select_cycles`` is sorted, a kept sample at ``j`` drops exactly
    the *contiguous* run of following samples with ``t < t[j] + lat[j]``
    — so the kept set is the orbit of index 0 under a "next kept"
    successor map, and only the ``n_kept`` chain nodes need any scalar
    work.  Two exact strategies, picked by a cheap density probe:

    * **dense** (many survivors): the successor map is materialised with
      blocked vectorized ``searchsorted`` passes and the chain is walked
      through a memoryview (O(1) per *kept* sample);
    * **sparse** (collision-heavy): the successor of each chain node is
      found lazily with a C ``bisect`` per kept sample, skipping the
      per-element ``searchsorted`` cost entirely.  A bail-out bound
      (chain much longer than the probe predicted) falls back to the
      dense strategy, so adversarial inputs degrade gracefully.
    """
    if reference_active():
        return _reference_collision_scan(select_cycles, latencies)
    n = select_cycles.shape[0]
    if n == 0:
        return np.zeros(0, dtype=bool), 0
    gaps = np.diff(select_cycles)
    if gaps.size == 0 or gaps.min() >= latencies.max():
        return np.ones(n, dtype=bool), 0  # fast path: no overlap possible
    t = np.ascontiguousarray(select_cycles, dtype=np.float64)
    end = t + np.asarray(latencies, dtype=np.float64)

    kept: list[int] | None = None
    if n >= 4096:
        # strided probe of the overlap ratio: keep rate of the renewal
        # process is ~ 1 / (1 + E[lat] / E[gap])
        stride = max(1, n // 512)
        probe = np.arange(0, n - 1, stride)
        gap_mean = float(np.mean(t[probe + 1] - t[probe]))
        lat_mean = float(np.mean(end[probe] - t[probe]))
        est_frac = 1.0 / (1.0 + lat_mean / max(gap_mean, 1e-300))
        if est_frac <= _SCAN_SPARSE_FRAC:
            kept = _sparse_chain_walk(
                t, end, bail=int(2.5 * est_frac * n) + 1024
            )
    if kept is None:
        f = memoryview(_successor_blocks(t, end))
        kept = []
        append = kept.append
        j = 0
        while j < n:
            append(j)
            j = f[j]
    keep = np.zeros(n, dtype=bool)
    keep[kept] = True
    return keep, n - len(kept)


def _sparse_chain_walk(
    t: np.ndarray, end: np.ndarray, bail: int
) -> list[int] | None:
    """Kept-chain indices via lazy per-node bisect; None past ``bail``."""
    haystack = memoryview(t)
    targets = memoryview(end)
    n = t.shape[0]
    kept: list[int] = []
    append = kept.append
    search = bisect.bisect_left
    j = 0
    while j < n:
        if len(kept) > bail:
            return None  # probe misjudged the density: redo vectorized
        append(j)
        j = search(haystack, targets[j], j + 1)
    return kept


@dataclass
class SamplerOutput:
    """Result of sampling one op stream on one core."""

    batch: SampleBatch            #: samples that survived collisions + filter
    arrival_cycles: np.ndarray    #: absolute cycle time each record completes
    n_selected: int               #: interval-counter firings
    n_collisions: int             #: dropped while tracker busy (pre-filter)
    n_filtered: int               #: dropped by the event filter
    duration_cycles: float        #: op-stream execution span covered

    @property
    def n_kept(self) -> int:
        return len(self.batch)


class SpeSampler:
    """Per-core sampling pipeline (Fig. 1 stages 1-3)."""

    def __init__(
        self,
        period: int,
        config: SpeConfig,
        pipeline: PipelineModel,
        timer: GenericTimer,
        rng: np.random.Generator,
        track_collisions: bool = True,
    ) -> None:
        """``track_collisions=False`` disables the in-flight tracking
        window (PEBS-style backends, which do not collide)."""
        check_period(period)
        self.period = period
        self.config = config
        self.pipeline = pipeline
        self.timer = timer
        self.rng = rng
        self.track_collisions = track_collisions
        #: the selection rule (None on the config means ``periodic``,
        #: which delegates straight back to :func:`sample_positions`)
        self.strategy = get_strategy(config.strategy or "periodic")
        #: interval-counter residue carried across op streams (phases);
        #: the hardware counter never resets between code regions
        self._carry: int | None = None

    def _filter_mask(self, kinds: np.ndarray, total_lat: np.ndarray) -> np.ndarray:
        cfg = self.config
        mask = np.zeros(kinds.shape, dtype=bool)
        if cfg.loads:
            mask |= kinds == LOAD
        if cfg.stores:
            mask |= kinds == STORE
        if cfg.branches:
            mask |= kinds == BRANCH
        if cfg.min_latency > 0:
            mask &= total_lat >= cfg.min_latency
        return mask

    def sample_stream(
        self, source: OpSource, start_cycle: float = 0.0
    ) -> SamplerOutput:
        """Sample one op stream starting at ``start_cycle`` (core clock)."""
        return sample_phase([self], [source], [start_cycle])[0]

    def _positions(self, source: OpSource) -> np.ndarray:
        """Stage 1: the indices the interval counter selects."""
        pos, self._carry = self.strategy.sample(
            source, self.period, self.config.jitter, self.rng, self._carry
        )
        return pos

    def _track(
        self,
        source: OpSource,
        pos: np.ndarray,
        kinds: np.ndarray,
        addrs: np.ndarray,
        start_cycle: float,
    ) -> SamplerOutput:
        """Stages 2-3 for the ops at ``pos``: levels, latencies, the
        collision scan, the filter and the records."""
        n_selected = int(pos.size)
        duration = source.n_ops * source.cpi
        if n_selected == 0:
            return SamplerOutput(
                batch=SampleBatch(),
                arrival_cycles=np.zeros(0),
                n_selected=0,
                n_collisions=0,
                n_filtered=0,
                duration_cycles=duration,
            )
        levels = source.levels_at(pos, kinds, addrs, self.rng)
        dram_scale = float(getattr(source, "dram_latency_scale", 1.0))
        lat = self.pipeline.op_latencies(
            kinds, levels, rng=self.rng, dram_scale=dram_scale
        )

        select_cycles = start_cycle + pos.astype(np.float64) * source.cpi
        if self.track_collisions:
            keep, n_collisions = collision_scan(select_cycles, lat)
        else:
            keep = np.ones(n_selected, dtype=bool)
            n_collisions = 0

        kinds, addrs, levels, lat = kinds[keep], addrs[keep], levels[keep], lat[keep]
        pos_kept = pos[keep]
        retire_cycles = select_cycles[keep] + lat

        total_lat = np.minimum(lat, 0xFFFF).astype(np.uint16)
        fmask = self._filter_mask(kinds, total_lat)
        n_filtered = int((~fmask).sum())

        retire_cycles = retire_cycles[fmask]
        ts = self.timer.cycles_to_ticks(retire_cycles)
        ts = np.maximum(ts, 1).astype(np.uint64)  # 0 would be decode-skipped
        issue_lat = np.minimum(
            np.maximum(total_lat[fmask].astype(np.float64) * 0.25, 1), 0xFFFF
        ).astype(np.uint16)
        batch = SampleBatch(
            pc=source.pcs_at(pos_kept[fmask]),
            addr=addrs[fmask],
            ts=ts,
            level=levels[fmask],
            kind=kinds[fmask],
            total_lat=total_lat[fmask],
            issue_lat=issue_lat,
        )
        return SamplerOutput(
            batch=batch,
            arrival_cycles=retire_cycles,
            n_selected=n_selected,
            n_collisions=n_collisions,
            n_filtered=n_filtered,
            duration_cycles=duration,
        )


def sample_phase(
    samplers: Sequence[SpeSampler],
    sources: Sequence[OpSource],
    start_cycles: Sequence[float],
) -> list[SamplerOutput]:
    """Sample one code region on several cores at once.

    ``samplers[i]`` samples ``sources[i]``, its core's stream of the
    region (for a workload phase, ``Workload.op_source(phase, i)``),
    from core cycle ``start_cycles[i]``.  Each core draws from its own
    RNG in a fixed order, positions, then levels, then latency jitter,
    so its output is the same whichever cores share the step.  The
    kinds and addresses at every core's positions come from one
    :meth:`OpSource.ops_at` call on ``sources[0]``, told each
    position's thread; the collision scan, the filter and the records
    stay per core.
    """
    positions = [s._positions(src) for s, src in zip(samplers, sources)]
    sizes = [p.size for p in positions]
    threads = np.repeat([src.thread for src in sources], sizes)
    # ops_at draws no random numbers: core 0's RNG only fills the argument
    kinds, addrs = sources[0].ops_at(
        np.concatenate(positions), samplers[0].rng, threads
    )
    bounds = np.cumsum([0, *sizes]).tolist()
    return [
        s._track(src, pos, kinds[a:b], addrs[a:b], start)
        for s, src, pos, start, a, b in zip(
            samplers, sources, positions, start_cycles, bounds, bounds[1:]
        )
    ]
