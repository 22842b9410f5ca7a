"""OpenMP-style loop partitioning.

The paper's benchmarks are OpenMP codes with default static scheduling:
``#pragma omp parallel for`` splits the iteration space into one
contiguous chunk per thread.  That contiguity is what produces the
"regular incremental small line segments" in the STREAM address scatter
(paper Fig. 4) — each thread walks its own slice of the arrays.
"""

from __future__ import annotations

import numpy as np

from repro.errors import WorkloadError


def static_chunks(n_iters: int, n_threads: int) -> list[tuple[int, int]]:
    """OpenMP static schedule: ``[start, stop)`` per thread.

    Matches ``schedule(static)`` semantics: chunks differ by at most one
    iteration and earlier threads get the larger chunks.
    """
    if n_iters < 0:
        raise WorkloadError("n_iters must be >= 0")
    if n_threads <= 0:
        raise WorkloadError("n_threads must be >= 1")
    base = n_iters // n_threads
    rem = n_iters % n_threads
    out: list[tuple[int, int]] = []
    start = 0
    for t in range(n_threads):
        size = base + (1 if t < rem else 0)
        out.append((start, start + size))
        start += size
    return out


def chunk_of(n_iters: int, n_threads: int, thread):
    """The static chunk ``[start, stop)`` assigned to a thread.

    ``thread`` is one id (ints returned) or an integer array of ids
    (arrays of the same shape returned).  The first ``n_iters %
    n_threads`` threads take one extra iteration, so thread ``t`` starts
    at ``t * base + min(t, rem)``.
    """
    t = np.asarray(thread)
    bad = (t < 0) | (t >= n_threads)
    if bad.any():
        raise WorkloadError(
            f"thread {t[bad].flat[0]} outside team of {n_threads}"
        )
    base, rem = divmod(n_iters, n_threads)
    start = t * base + np.minimum(t, rem)
    stop = start + base + (t < rem)
    if t.ndim == 0:
        return int(start), int(stop)
    return start, stop


def interleaved_chunks(n_iters: int, n_threads: int, chunk: int = 1) -> list[np.ndarray]:
    """``schedule(static, chunk)`` round-robin partition (index arrays).

    Used by tests to check that region profiling distinguishes contiguous
    from interleaved thread access patterns.
    """
    if chunk <= 0:
        raise WorkloadError("chunk must be >= 1")
    if n_iters < 0 or n_threads <= 0:
        raise WorkloadError("bad iteration/thread counts")
    idx = np.arange(n_iters)
    block = idx // chunk
    return [idx[block % n_threads == t] for t in range(n_threads)]
