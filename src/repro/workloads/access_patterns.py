"""Reusable address-function builders.

Workloads compose their per-phase address functions from these
primitives.  Every builder returns an ``AddrFn``: a deterministic,
vectorised map from memory-op index (within a thread's phase stream)
and thread id to a virtual address.  The thread id is one int or an
array with one id per index, so a single call can cover every thread
of a phase.  Determinism matters: the SPE sampler may evaluate any
subset of indices, in any order, across trials.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import WorkloadError
from repro.runtime.openmp import chunk_of
from repro.workloads.base import AddrFn, hash_uniform, pick_threads


def sequential(
    base: int, n_elems: int, elem_size: int, n_threads: int = 1,
    passes: int = 1,
) -> AddrFn:
    """OpenMP-chunked sequential sweep over an array.

    Thread ``t`` walks its static chunk of ``n_elems`` elements in order,
    ``passes`` times; the memory-op index wraps accordingly.  Produces the
    per-thread contiguous segments of the paper's Fig. 4.
    """
    if n_elems <= 0 or elem_size <= 0 or passes <= 0:
        raise WorkloadError("n_elems, elem_size and passes must be positive")

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        lo, hi = chunk_of(n_elems, n_threads, thread)
        span = np.maximum(hi - lo, 1)
        e = lo + (np.asarray(mem_idx, dtype=np.int64) % span)
        return (np.uint64(base) + e.astype(np.uint64) * np.uint64(elem_size))

    return fn


def strided(base: int, n_elems: int, elem_size: int, stride_elems: int,
            n_threads: int = 1) -> AddrFn:
    """Strided sweep (stride in elements) over a thread's chunk."""
    if stride_elems <= 0:
        raise WorkloadError("stride_elems must be positive")

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        lo, hi = chunk_of(n_elems, n_threads, thread)
        span = np.maximum(hi - lo, 1)
        e = lo + (np.asarray(mem_idx, dtype=np.int64) * stride_elems) % span
        return np.uint64(base) + e.astype(np.uint64) * np.uint64(elem_size)

    return fn


def random_in(base: int, n_elems: int, elem_size: int, salt: int = 0) -> AddrFn:
    """Uniform pseudo-random accesses over a whole object (hash-based)."""
    if n_elems <= 0:
        raise WorkloadError("n_elems must be positive")

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        u = hash_uniform(np.asarray(mem_idx, dtype=np.int64), salt=salt + thread * 7919)
        e = (u * n_elems).astype(np.uint64)
        return np.uint64(base) + e * np.uint64(elem_size)

    return fn


def local_window(
    base: int, n_elems: int, elem_size: int, window: int,
    n_threads: int = 1, salt: int = 0, global_fraction: float = 0.0,
) -> AddrFn:
    """Neighbour-style access: near the sweep position, occasionally far.

    Models unstructured-mesh indirection (CFD's
    ``elements_surrounding_elements``): accesses land within ``window``
    elements of the thread's current sweep position, except a
    ``global_fraction`` that jump anywhere in the array — the irregular
    pattern visible in the paper's Fig. 6 high-resolution trace.
    """
    if window <= 0:
        raise WorkloadError("window must be positive")
    if not 0.0 <= global_fraction <= 1.0:
        raise WorkloadError("global_fraction must be in [0, 1]")

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        mi = np.asarray(mem_idx, dtype=np.int64)
        lo, hi = chunk_of(n_elems, n_threads, thread)
        span = np.maximum(hi - lo, 1)
        centre = lo + mi % span
        jitter = ((hash_uniform(mi, salt=salt) - 0.5) * 2 * window).astype(np.int64)
        e = np.clip(centre + jitter, 0, n_elems - 1)
        if global_fraction > 0.0:
            far = hash_uniform(mi, salt=salt + 31) < global_fraction
            e_far = (hash_uniform(mi, salt=salt + 63) * n_elems).astype(np.int64)
            e = np.where(far, e_far, e)
        return np.uint64(base) + e.astype(np.uint64) * np.uint64(elem_size)

    return fn


def round_robin(patterns: Sequence[AddrFn]) -> AddrFn:
    """Cycle deterministically through sub-patterns per memory op.

    Memory op ``m`` uses pattern ``m % len(patterns)`` with sub-index
    ``m // len(patterns)`` — the natural encoding of a kernel that
    touches several arrays per loop iteration (STREAM's b, c, a).
    """
    if not patterns:
        raise WorkloadError("round_robin needs at least one pattern")
    k = len(patterns)

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        sub, which = np.divmod(np.asarray(mem_idx, dtype=np.int64), k)
        out = np.zeros(sub.shape, dtype=np.uint64)
        for w, p in enumerate(patterns):
            rows = np.flatnonzero(which == w)
            if rows.size:
                out[rows] = p(sub.take(rows), pick_threads(thread, rows))
        return out

    return fn


def weighted_mix(patterns: Sequence[tuple[AddrFn, float]], salt: int = 0) -> AddrFn:
    """Choose a sub-pattern per op with deterministic pseudo-random weights."""
    if not patterns:
        raise WorkloadError("weighted_mix needs at least one pattern")
    weights = np.array([w for _p, w in patterns], dtype=np.float64)
    if (weights <= 0).any():
        raise WorkloadError("weights must be positive")
    cdf = np.cumsum(weights / weights.sum())

    def fn(mem_idx: np.ndarray, thread) -> np.ndarray:
        mi = np.asarray(mem_idx, dtype=np.int64)
        u = hash_uniform(mi, salt=salt + 101)
        which = np.searchsorted(cdf, u, side="right")
        which = np.minimum(which, len(patterns) - 1)
        out = np.zeros(mi.shape, dtype=np.uint64)
        for w, (p, _wt) in enumerate(patterns):
            rows = np.flatnonzero(which == w)
            if rows.size:
                out[rows] = p(mi.take(rows), pick_threads(thread, rows))
        return out

    return fn
