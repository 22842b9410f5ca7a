"""Parallel trial execution with deterministic seeding and ordering.

The evaluation grid (Figs. 2-11) is embarrassingly parallel: every
trial is an independent, seeded simulation.  :class:`ParallelRunner`
runs a list of :class:`TrialSpec` as one
:class:`~repro.orchestrate.dispatch.Job` on the shared
:class:`~repro.orchestrate.dispatch.Dispatcher` and collects results
back **in submission order**, so a parallel run is byte-identical to a
serial one:

* seeds are fixed in the specs *before* anything is submitted — they
  depend on the grid position, never on scheduling,
* results land in a slot indexed by spec position, never by completion
  order,
* ``workers=1`` or at most one cache miss runs in the calling process
  on an :class:`~repro.orchestrate.dispatch.InlinePool` (no pickling
  requirements, no pool opened); otherwise the misses run on a
  :class:`~repro.orchestrate.pool.WorkerPool` opened for the call, at
  most ``workers`` trials at a time.

When a :class:`~repro.orchestrate.cache.ResultCache` is attached, the
parent resolves hits up front and only submits the misses; workers
never touch the cache directory.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Sequence

from repro.errors import ReproError
from repro.orchestrate.cache import ResultCache, cache_key, canonical_config
from repro.orchestrate.dispatch import Dispatcher, InlinePool, Job
from repro.orchestrate.pool import WorkerPool


def derive_seed(*parts: Any) -> int:
    """Stable 32-bit seed from arbitrary grid coordinates.

    Hash-derived (not positional), so inserting a sweep point does not
    reseed its neighbours.
    """
    payload = json.dumps(canonical_config(list(parts)), sort_keys=True)
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "big")


def default_workers() -> int:
    """Worker count for ``workers=0`` (auto): one per available core."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class TrialSpec:
    """One unit of work: an experiment name, its config, and a seed.

    ``config`` must be picklable (it crosses the process boundary) and
    canonicalisable (it becomes part of the cache key); dataclasses and
    dicts of primitives both work.
    """

    experiment: str
    config: Any
    seed: int


@dataclass
class RunReport:
    """What happened during one :meth:`ParallelRunner.map` call."""

    total: int = 0
    cache_hits: int = 0
    executed: int = 0
    workers: int = 1


class ParallelRunner:
    """Execute trial specs across processes, results in spec order."""

    def __init__(
        self, workers: int = 1, cache: ResultCache | None = None
    ) -> None:
        if workers < 0:
            raise ReproError(f"workers must be >= 0 (0 = auto), got {workers}")
        self.workers = workers if workers > 0 else default_workers()
        self.cache = cache
        self.last_report = RunReport()

    def map(
        self,
        fn: Callable[[TrialSpec], Any],
        specs: Sequence[TrialSpec],
    ) -> list[Any]:
        """Run ``fn(spec)`` for every spec; results in spec order.

        With ``workers > 1``, ``fn`` and each spec's config must be
        picklable (use a module-level function, or a
        :func:`functools.partial` of one).  A spec identical to one
        already running rides along instead of running again.  The
        first trial exception propagates, its worker-side traceback
        chained as ``__cause__``, and no trial is submitted after it; a
        trial lost to a second worker crash raises :class:`ReproError`
        once the rest of the grid has run.
        """
        specs = list(specs)
        job = Job(
            specs, [cache_key(s.experiment, s.config, s.seed) for s in specs]
        )
        core = Dispatcher(cache=self.cache)
        try:
            core.admit(job)
            misses = len(job.pending)
            if self.workers > 1 and misses > 1:
                pool = WorkerPool(workers=min(self.workers, misses))
            else:
                pool = InlinePool()
            with pool:
                core.pool = pool
                while not job.is_terminal():
                    while job.pending and core.has_room():
                        core.dispatch(job, job.pending.pop(0), fn)
                    core.step(timeout=None)
        finally:
            if self.cache is not None and not job.is_terminal():
                self.cache.flush_stats()  # the core flushes as a job ends
            self.last_report = RunReport(
                total=job.total,
                cache_hits=job.cached,
                executed=job.total - job.cached,
                workers=self.workers,
            )
        if job.state == "failed":
            if isinstance(job.exception, BaseException):
                raise job.exception
            raise ReproError(f"worker trial failed: {job.exception}")
        if job.state == "partial":
            raise ReproError(f"{job.error}: {'; '.join(job.lost.values())}")
        return job.rows
