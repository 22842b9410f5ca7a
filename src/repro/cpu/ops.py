"""Vectorised operation streams.

A simulated thread's work is a stream of decoded operations — exactly the
population SPE samples from ("the sampling interval counter ... is
decremented after each operation is decoded", paper §II-A).  Streams are
held as structure-of-arrays chunks so every downstream consumer (cache
simulator, SPE sampler, PMU counters) operates on NumPy vectors.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from repro.errors import WorkloadError


class OpKind(enum.IntEnum):
    """Decoded operation categories relevant to memory-centric profiling."""

    OTHER = 0   #: integer ALU / address arithmetic / control glue
    LOAD = 1
    STORE = 2
    BRANCH = 3  #: sampled by SPE in hardware but excluded by NMO (§IV-A)
    FLOP = 4    #: floating-point op, counted for arithmetic intensity


#: Kinds that constitute the ``mem_access`` PMU event (loads + stores).
MEM_KINDS = (OpKind.LOAD, OpKind.STORE)

#: The kinds as plain ints, for the sampling hot path: NumPy probes the
#: type of every ``OpKind`` member it is handed (through
#: ``EnumType.__getattr__``), which costs more than the array work on
#: the few-sample arrays of one phase.
OTHER, LOAD, STORE, BRANCH, FLOP = (int(k) for k in OpKind)


@dataclass
class OpChunk:
    """A contiguous slice of one thread's operation stream.

    Attributes
    ----------
    kinds:
        uint8 array of :class:`OpKind` values.
    addrs:
        uint64 virtual addresses; meaningful only where the kind is a
        load or store (0 elsewhere).
    start_index:
        Global index of the first op within the thread's stream, so
        sampling positions remain stable across chunk boundaries.
    """

    kinds: np.ndarray
    addrs: np.ndarray
    start_index: int = 0

    def __post_init__(self) -> None:
        self.kinds = np.asarray(self.kinds, dtype=np.uint8)
        self.addrs = np.asarray(self.addrs, dtype=np.uint64)
        if self.kinds.shape != self.addrs.shape:
            raise WorkloadError(
                f"kinds/addrs shape mismatch: {self.kinds.shape} vs {self.addrs.shape}"
            )
        if self.kinds.ndim != 1:
            raise WorkloadError("op chunks must be one-dimensional")
        if self.start_index < 0:
            raise WorkloadError("start_index must be >= 0")

    def __len__(self) -> int:
        return int(self.kinds.shape[0])

    @property
    def end_index(self) -> int:
        return self.start_index + len(self)

    def is_mem(self) -> np.ndarray:
        """Boolean mask of memory operations (loads or stores)."""
        return (self.kinds == OpKind.LOAD) | (self.kinds == OpKind.STORE)

    def mem_addrs(self) -> np.ndarray:
        """Addresses of the memory operations only."""
        return self.addrs[self.is_mem()]

    def count(self, kind: OpKind) -> int:
        return int((self.kinds == kind).sum())

    def counts(self) -> dict[OpKind, int]:
        """Histogram over op kinds."""
        binc = np.bincount(self.kinds, minlength=len(OpKind))
        return {k: int(binc[int(k)]) for k in OpKind}

    def slice(self, lo: int, hi: int) -> "OpChunk":
        """Sub-chunk covering local indices [lo, hi)."""
        if not 0 <= lo <= hi <= len(self):
            raise WorkloadError(f"bad slice [{lo}, {hi}) of chunk len {len(self)}")
        return OpChunk(
            kinds=self.kinds[lo:hi],
            addrs=self.addrs[lo:hi],
            start_index=self.start_index + lo,
        )

    @staticmethod
    def concat(chunks: list["OpChunk"]) -> "OpChunk":
        """Concatenate consecutive chunks (indices must be contiguous)."""
        if not chunks:
            raise WorkloadError("cannot concat zero chunks")
        for a, b in zip(chunks, chunks[1:]):
            if a.end_index != b.start_index:
                raise WorkloadError(
                    f"non-contiguous chunks: {a.end_index} != {b.start_index}"
                )
        return OpChunk(
            kinds=np.concatenate([c.kinds for c in chunks]),
            addrs=np.concatenate([c.addrs for c in chunks]),
            start_index=chunks[0].start_index,
        )


def interleave(
    mem_addrs: np.ndarray,
    is_store: np.ndarray | bool,
    ops_between: int,
    flop_share: float = 0.0,
    start_index: int = 0,
    rng: np.random.Generator | None = None,
) -> OpChunk:
    """Build an op chunk from memory accesses plus filler compute ops.

    Workload kernels naturally produce their *memory* access sequences;
    this helper expands them into full instruction streams by inserting
    ``ops_between`` non-memory ops after each access, a ``flop_share`` of
    which are floating-point (for arithmetic-intensity profiling).

    Parameters
    ----------
    mem_addrs:
        uint64 addresses of the memory accesses, in program order.
    is_store:
        Per-access store mask, or a scalar bool for homogeneous streams.
    ops_between:
        Number of OTHER/FLOP ops inserted after each memory access.
    flop_share:
        Fraction of the filler ops that are FLOPs (deterministic pattern
        unless an ``rng`` is supplied).
    """
    if ops_between < 0:
        raise WorkloadError("ops_between must be >= 0")
    if not 0.0 <= flop_share <= 1.0:
        raise WorkloadError("flop_share must be in [0, 1]")
    mem_addrs = np.asarray(mem_addrs, dtype=np.uint64)
    n_mem = mem_addrs.shape[0]
    store_mask = np.broadcast_to(np.asarray(is_store, dtype=bool), (n_mem,))

    group = 1 + ops_between
    total = n_mem * group
    kinds = np.full(total, OpKind.OTHER, dtype=np.uint8)
    addrs = np.zeros(total, dtype=np.uint64)

    mem_pos = np.arange(n_mem) * group
    kinds[mem_pos] = np.where(store_mask, OpKind.STORE, OpKind.LOAD).astype(np.uint8)
    addrs[mem_pos] = mem_addrs

    if ops_between and flop_share > 0.0:
        filler = np.ones(total, dtype=bool)
        filler[mem_pos] = False
        filler_idx = np.nonzero(filler)[0]
        n_flops = int(round(flop_share * filler_idx.size))
        if n_flops:
            if rng is not None:
                chosen = rng.choice(filler_idx, size=n_flops, replace=False)
            else:
                # deterministic spread: every k-th filler op is a FLOP
                step = max(1, filler_idx.size // n_flops)
                chosen = filler_idx[::step][:n_flops]
            kinds[chosen] = OpKind.FLOP

    return OpChunk(kinds=kinds, addrs=addrs, start_index=start_index)
