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
4. filtered-in samples become 64-byte records, in the order they
   complete, which the driver (:mod:`repro.spe.driver`) writes to the
   core's aux buffer.

The sampler never materialises the full op stream: it draws sample
*positions* arithmetically and asks an :class:`OpSource` to describe just
those operations, which is what lets the reproduction sample workloads
with 10^10+ operations.  :func:`sample_phase` takes these stages for
every core of one code region in one step.  Per core stay the positions,
each core's draws from its own RNG and the collision scan of a core that
can collide; the op description, level and latency lookups, filter,
timestamps and record encoding run once over the phase's samples.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from repro.cpu.clock import GenericTimer
from repro.cpu.ops import BRANCH, LOAD, STORE
from repro.cpu.pipeline import PipelineModel
from repro.errors import SpeError
from repro.spe.config import SpeConfig
from repro.spe.packets import RECORD_SIZE, encode_records
from repro.spe.records import SampleBatch
from repro.spe.refpath import reference_active
from repro.spe.strategies import (
    check_period,
    get_strategy,
    sample_positions,
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
        """MemLevel uint8 per op (0 where not a memory op).

        A source that draws levels takes one ``rng.random`` uniform per
        load or store, all in one call: :func:`sample_phase` passes a
        :class:`CoreDraws` that splits that draw among the cores.
        """
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
#: streams of at most this many samples take one scalar pass: it costs
#: ~3 us plus ~0.1-0.2 us per sample, the successor map ~12 us before
#: its walk, so the pass wins at every density measured up to here
#: (collision-heavy streams break even near 100 samples)
_SCAN_SHORT = 96


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
    a long stream in Python.  The key structural fact: because
    ``select_cycles`` is sorted, a kept sample at ``j`` drops exactly
    the *contiguous* run of following samples with ``t < t[j] + lat[j]``
    — so the kept set is the orbit of index 0 under a "next kept"
    successor map, and only the ``n_kept`` chain nodes need any scalar
    work.  A stream of at most ``_SCAN_SHORT`` samples is walked in one
    scalar pass over the same doubles instead (the successor map's fixed
    cost exceeds the walk there).  Longer streams take one of two exact
    strategies, picked by a cheap density probe:

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
    t = np.ascontiguousarray(select_cycles, dtype=np.float64)
    end = t + np.asarray(latencies, dtype=np.float64)
    if n <= _SCAN_SHORT:
        return _short_scan(t.tolist(), end.tolist())
    if (select_cycles[1:] - select_cycles[:-1]).min() >= latencies.max():
        return np.ones(n, dtype=bool), 0  # fast path: no overlap possible

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


def _short_scan(t: list[float], end: list[float]) -> tuple[np.ndarray, int]:
    """The tracker walked sample by sample: ``end[j]`` frees it after a
    kept sample ``j``; returns (keep mask, number of collisions)."""
    dropped: list[int] = []
    busy_until = end[0]
    for j in range(1, len(t)):
        if t[j] < busy_until:
            dropped.append(j)
        else:
            busy_until = end[j]
    keep = np.ones(len(t), dtype=bool)
    keep[dropped] = False
    return keep, len(dropped)


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


#: the records and arrival times of a core that kept no sample
_NO_RECORDS = np.zeros((0, RECORD_SIZE), dtype=np.uint8)
_NO_CYCLES = np.zeros(0, dtype=np.float64)
_NO_RECORDS.setflags(write=False)
_NO_CYCLES.setflags(write=False)


@dataclass
class SamplerOutput:
    """Result of sampling one op stream on one core.

    The kept samples are in arrival order, the order in which their
    records complete and the core writes them to its aux buffer.  They
    are rows ``rows`` of ``samples``, the batch of the phase step that
    produced them; ``records`` holds the same rows encoded as 64-byte SPE
    records, or ``None`` when the step did not encode them (the core's
    session is inert and only counts them as lost).
    """

    samples: SampleBatch          #: every kept sample of the phase step
    rows: slice                   #: this core's rows of ``samples``
    records: np.ndarray | None    #: ``(n_kept, 64)`` uint8 encoded rows
    arrival_cycles: np.ndarray    #: absolute cycle time each record completes
    n_selected: int               #: interval-counter firings
    n_collisions: int             #: dropped while tracker busy (pre-filter)
    n_filtered: int               #: dropped by the event filter
    duration_cycles: float        #: op-stream execution span covered

    @property
    def batch(self) -> SampleBatch:
        """This core's kept samples (views into :attr:`samples`)."""
        return self.samples.select(self.rows)

    @property
    def n_kept(self) -> int:
        return int(self.arrival_cycles.shape[0])


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


class CoreDraws:
    """Several cores' generators, drawn from as one.

    A phase step passes this in place of a
    :class:`numpy.random.Generator` to :meth:`OpSource.levels_at` and
    :meth:`PipelineModel.op_latencies`, which then cover every core's
    samples in one call.  A draw of ``sum(sizes)`` values takes
    ``sizes[i]`` of them from core ``i``'s own generator, in core order,
    so each core's stream advances exactly as if the core had drawn for
    its own samples alone.  A draw of any other length raises.  Each
    draw fills one array, core by core.
    """

    def __init__(
        self, rngs: Sequence[np.random.Generator], sizes: Sequence[int]
    ) -> None:
        self.rngs = rngs
        self.sizes = sizes
        self.total = sum(sizes)

    def _shares(self, n: int):
        """(generator, start, end) of each core's share of a draw of ``n``."""
        if n != self.total:
            raise SpeError(
                f"a draw of {n} values does not split into the cores' "
                f"shares of {self.total}"
            )
        a = 0
        for rng, k in zip(self.rngs, self.sizes):
            if k:
                yield rng, a, a + k
                a += k

    def random(self, size: int) -> np.ndarray:
        out = np.empty(int(size))
        for rng, a, b in self._shares(out.shape[0]):
            rng.random(out=out[a:b])
        return out

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        # the latency jitter passes a shape (a 1-tuple)
        n = math.prod(size) if isinstance(size, tuple) else int(size)
        out = np.empty(n)
        for rng, a, b in self._shares(n):
            out[a:b] = rng.uniform(low, high, b - a)
        return out


def _offsets(counts: np.ndarray) -> np.ndarray:
    """Start of each segment of the given lengths, then the total."""
    return np.concatenate(([0], np.cumsum(counts, dtype=np.int64)))


def _segment_counts(mask: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """True entries of ``mask`` in each segment ``[starts[i], starts[i+1])``."""
    c = np.zeros(mask.shape[0] + 1, dtype=np.int64)
    np.cumsum(mask, out=c[1:])
    return c[starts[1:]] - c[starts[:-1]]


def _cores_with(pair_flags: np.ndarray, starts: np.ndarray) -> list[int]:
    """The segments holding a flagged pair of their own adjacent rows.

    ``pair_flags[j]`` flags rows ``j`` and ``j+1`` of the concatenated
    segments; a pair that straddles two segments is ignored (and its
    flag cleared in place).
    """
    cut = starts[1:-1]
    pair_flags[cut[(cut > 0) & (cut <= pair_flags.shape[0])] - 1] = False
    hit = np.flatnonzero(pair_flags)
    return np.unique(np.searchsorted(starts, hit, side="right") - 1).tolist()


def sample_phase(
    samplers: Sequence[SpeSampler],
    sources: Sequence[OpSource],
    start_cycles: Sequence[float],
    encode: Sequence[bool] | None = None,
) -> list[SamplerOutput]:
    """Sample one code region on several cores in one step.

    ``samplers[i]`` samples ``sources[i]``, its core's stream of the
    region (for a workload phase, ``Workload.op_sources(phase)[i]``),
    from core cycle ``start_cycles[i]``.  The samplers are one
    profiler's sessions: they share ``samplers[0]``'s filter config,
    pipeline model and timer, and ``sources[0]`` describes every core's
    ops, told each position's thread.

    What stays per core: the positions; each core's draws from its own
    RNG in a fixed order (positions, then one level uniform per memory
    op, then one latency jitter per sample); and the collision scan,
    run only for a core where some sample's tracking window reaches its
    next selection.  The rest runs once over the phase's concatenated
    samples: the op description, the level-CDF inversion, the latency
    tables, the filter, the timestamps, one :class:`SampleBatch`, and
    one :func:`~repro.spe.packets.encode_records` call over the rows of
    each core whose ``encode[i]`` is true (default: every core), each
    core's rows in stable arrival order.  A core's output is therefore
    the same whichever cores share the step.
    """
    first, src = samplers[0], sources[0]
    cfg = first.config
    if any(s.config is not cfg and s.config != cfg for s in samplers):
        raise SpeError("the samplers of one phase step must share a config")
    k = len(samplers)
    positions = [s._positions(source) for s, source in zip(samplers, sources)]
    durations = [source.n_ops * source.cpi for source in sources]
    sizes = np.fromiter(map(len, positions), dtype=np.int64, count=k)
    if not sizes.any():
        empty = SampleBatch()
        return [
            SamplerOutput(empty, slice(0, 0), _NO_RECORDS, _NO_CYCLES, 0, 0, 0, d)
            for d in durations
        ]
    starts = _offsets(sizes)
    pos = np.concatenate(positions)
    rngs = [s.rng for s in samplers]

    # ops_at draws no random numbers: core 0's RNG only fills the argument
    threads = np.repeat([source.thread for source in sources], sizes)
    kinds, addrs = src.ops_at(pos, rngs[0], threads)
    is_mem = (kinds == LOAD) | (kinds == STORE)
    levels = src.levels_at(
        pos, kinds, addrs, CoreDraws(rngs, _segment_counts(is_mem, starts).tolist())
    )
    lat = first.pipeline.op_latencies(
        kinds, levels, rng=CoreDraws(rngs, sizes.tolist()),
        dram_scale=float(getattr(src, "dram_latency_scale", 1.0)),
    )
    select_cycles = np.repeat(
        np.asarray(start_cycles, dtype=np.float64), sizes
    ) + pos.astype(np.float64) * np.repeat(
        [source.cpi for source in sources], sizes
    )

    # stage 2: only a core whose tracking windows overlap can collide;
    # stage 3: the filter, over the samples the tracker kept
    total_lat = np.minimum(lat, 0xFFFF).astype(np.uint16)
    keep = first._filter_mask(kinds, total_lat)
    n_collisions = np.zeros(k, dtype=np.int64)
    overlap = select_cycles[1:] < select_cycles[:-1] + lat[:-1]
    for i in _cores_with(overlap, starts):
        if samplers[i].track_collisions:
            a, b = starts[i], starts[i + 1]
            tracked, n_collisions[i] = collision_scan(
                select_cycles[a:b], lat[a:b]
            )
            keep[a:b] &= tracked
    kept = _segment_counts(keep, starts)
    n_filtered = sizes - n_collisions - kept
    out_starts = _offsets(kept)
    # integer gathers: ~6x faster than boolean masks for a random mask
    rows = np.flatnonzero(keep)
    retire_cycles = select_cycles.take(rows) + lat.take(rows)
    pos, addrs, levels, kinds, total_lat = (
        x.take(rows) for x in (pos, addrs, levels, kinds, total_lat)
    )

    late = _cores_with(retire_cycles[1:] < retire_cycles[:-1], out_starts)
    if late:
        # each late core's rows in stable arrival order; the rest stay
        core = np.repeat(np.arange(k), kept)
        rows = np.flatnonzero(np.isin(core, late))
        order = np.arange(retire_cycles.shape[0])
        order[rows] = rows[np.lexsort((retire_cycles[rows], core[rows]))]
        pos, addrs, levels, kinds, total_lat, retire_cycles = (
            x.take(order)
            for x in (pos, addrs, levels, kinds, total_lat, retire_cycles)
        )

    ts = first.timer.cycles_to_ticks(retire_cycles)
    ts = np.maximum(ts, 1).astype(np.uint64)  # 0 would be decode-skipped
    issue_lat = np.minimum(
        np.maximum(total_lat.astype(np.float64) * 0.25, 1), 0xFFFF
    ).astype(np.uint16)
    batch = SampleBatch(
        pc=src.pcs_at(pos),
        addr=addrs,
        ts=ts,
        level=levels,
        kind=kinds,
        total_lat=total_lat,
        issue_lat=issue_lat,
    )

    emit = np.ones(k, dtype=bool) if encode is None else np.asarray(encode, bool)
    records = encode_records(
        batch if emit.all() else batch.select(np.repeat(emit, kept))
    )
    bounds = out_starts.tolist()
    rec_bounds = _offsets(kept * emit).tolist()
    return [
        SamplerOutput(
            samples=batch,
            rows=slice(bounds[i], bounds[i + 1]),
            records=records[rec_bounds[i] : rec_bounds[i + 1]] if emit[i] else None,
            arrival_cycles=retire_cycles[bounds[i] : bounds[i + 1]],
            n_selected=n_sel,
            n_collisions=n_col,
            n_filtered=n_filt,
            duration_cycles=durations[i],
        )
        for i, (n_sel, n_col, n_filt) in enumerate(zip(
            sizes.tolist(), n_collisions.tolist(), n_filtered.tolist()
        ))
    ]
