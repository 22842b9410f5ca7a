"""A fixed CPU task that measures how fast this host runs right now.

The reference host is a 2-core share of a busy machine.  The same
simulator code ran up to 60% slower in one run than in the next as the
neighbours' load came and went, with no CPU steal: the cores executed
the same instructions more slowly.  ``exhibit_sweep`` times this fixed
task on each core between its jobs and divides each timing by the
host's slowness gauged around it; ``cluster_mix`` does the same for its
CPU-bound replays (see NOTES.md, "Host-speed scaling").

The task mixes what the simulator spends its time on: NumPy random
draws, a sort and a binary search over arrays that fit in L2, and a
Python loop over the results.  It is small, so it adds nothing to
``peak_rss_mib``, and it imports nothing from ``repro``, so a change to
the program under test cannot change the yardstick.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np

#: median seconds of :func:`task` on the reference host (2 vCPUs of a
#: Xeon, CPU model 143) when its neighbours were quiet: scaled timings
#: read as on that host
NOMINAL_S = 0.023


def task() -> int:
    """The fixed work; returns a checksum of its results."""
    rng = np.random.default_rng(20240607)
    values = rng.integers(0, 1 << 24, 1 << 17)
    ordered = np.sort(values)
    ranks = np.searchsorted(ordered, values[::2])
    buckets: dict[int, int] = {}
    for r in ranks.tolist():
        key = r & 1023
        buckets[key] = buckets.get(key, 0) + r
    return sum(buckets.values()) & 0xFFFFFFFF


def measure() -> float:
    """Mean wall seconds of :func:`task` run pinned to each CPU this
    thread may use in turn (the host slows its cores unevenly)."""
    cpus = os.sched_getaffinity(0)
    times = []
    try:
        for cpu in sorted(cpus):
            os.sched_setaffinity(0, {cpu})
            t0 = time.perf_counter()
            task()
            times.append(time.perf_counter() - t0)
    finally:
        os.sched_setaffinity(0, cpus)
    return statistics.mean(times)
