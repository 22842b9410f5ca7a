"""Parallel trial execution with deterministic seeding and ordering.

The evaluation grid (Figs. 2-11) is embarrassingly parallel: every
trial is an independent, seeded simulation.  :class:`ParallelRunner`
fans a list of :class:`TrialSpec` out over a
:class:`~repro.orchestrate.pool.WorkerPool` opened for the call and
collects results back **in submission order**, so a parallel run is
byte-identical to a serial one:

* seeds are fixed in the specs *before* anything is submitted — they
  depend on the grid position, never on scheduling,
* results land in a slot indexed by spec position, never by completion
  order,
* ``workers=1`` or at most one cache miss short-circuits to a plain
  in-process loop (no pickling requirements, exact legacy behaviour,
  no pool opened).

When a :class:`~repro.orchestrate.cache.ResultCache` is attached, the
parent resolves hits up front and only submits the misses; workers
never touch the cache directory.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import mmap
import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Sequence

from repro.errors import ReproError
from repro.orchestrate.cache import ResultCache, canonical_config
from repro.orchestrate.pool import WorkerPool

_MISS = object()

#: one shared stop byte per grid in flight; a pool's forked workers
#: inherit this table, so each worker reads its own grid's byte
_stop_flags: dict[int, mmap.mmap] = {}
_grid_ids = itertools.count()


@contextmanager
def _stop_flag() -> Iterator[tuple[int, mmap.mmap]]:
    """A new grid id and its stop byte, registered until the grid ends.

    Open it before the grid's pool forks, so the workers inherit it.
    """
    grid = next(_grid_ids)
    _stop_flags[grid] = stop = mmap.mmap(-1, 1)
    try:
        yield grid, stop
    finally:
        del _stop_flags[grid]
        stop.close()


class _GridStopped(Exception):
    """Reported in place of a trial that never started: its grid failed."""


@dataclass(frozen=True)
class _GridTrial:
    """``fn`` as one trial of a stoppable grid, run in a pool worker.

    A trial that raises sets its grid's stop byte before the worker
    reports the error, so no worker starts another trial of that grid —
    not even the failing worker, which pulls its next task at once.
    """

    fn: Callable[[Any], Any]
    grid: int

    def __call__(self, spec: Any) -> Any:
        stop = _stop_flags[self.grid]
        if stop[0]:
            raise _GridStopped
        try:
            return self.fn(spec)
        except BaseException:
            stop[0] = 1
            raise


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
        :func:`functools.partial` of one).  The first trial exception
        propagates, its worker-side traceback chained as ``__cause__``;
        trials that had not started by then never start.
        """
        specs = list(specs)
        results: list[Any] = [None] * len(specs)
        pending: list[tuple[int, TrialSpec, str | None]] = []
        for i, spec in enumerate(specs):
            key = None
            if self.cache is not None:
                key = self.cache.key(spec.experiment, spec.config, spec.seed)
                hit = self.cache.get(key, _MISS)
                if hit is not _MISS:
                    results[i] = hit
                    continue
            pending.append((i, spec, key))

        report = RunReport(
            total=len(specs),
            cache_hits=len(specs) - len(pending),
            executed=len(pending),
            workers=self.workers,
        )
        try:
            if self.workers == 1 or len(pending) <= 1:
                for i, spec, key in pending:
                    self._land(results, i, key, fn(spec))
            else:
                self._map_on_pool(fn, pending, results)
        finally:
            if self.cache is not None:
                self.cache.flush_stats()
            self.last_report = report
        return results

    def _land(
        self, results: list[Any], i: int, key: str | None, value: Any
    ) -> None:
        results[i] = value
        if key is not None:
            self.cache.put(key, value)

    def _map_on_pool(
        self,
        fn: Callable[[TrialSpec], Any],
        pending: list[tuple[int, TrialSpec, str | None]],
        results: list[Any],
    ) -> None:
        """Run the cache misses on a pool opened (and closed) for this call.

        Every miss is queued at once, so no worker idles between trials.
        A worker crash mid-trial is retried once on the replacement
        worker the pool spawned; a second loss or a trial exception
        propagates once the trials already running have ended.
        """
        n = min(self.workers, len(pending))
        stopped = False
        with _stop_flag() as (grid, stop), WorkerPool(workers=n) as pool:
            trial = _GridTrial(fn, grid)
            try:
                tasks = {
                    pool.submit(trial, spec): (i, spec, key, 0)
                    for i, spec, key in pending
                }
                while tasks:
                    kind, task_id, payload = pool.next_event(timeout=None)
                    i, spec, key, retries = tasks.pop(task_id)
                    if kind == "done":
                        self._land(results, i, key, payload)
                    elif kind == "lost" and retries < 1:
                        retry = pool.submit(trial, spec)
                        tasks[retry] = (i, spec, key, retries + 1)
                    elif kind == "lost":
                        raise ReproError(
                            f"trial lost twice to worker crashes: {payload}"
                        )
                    elif isinstance(payload, _GridStopped):
                        stopped = True  # the failing trial reports next
                    elif isinstance(payload, BaseException):
                        raise payload
                    else:
                        raise ReproError(f"worker trial failed: {payload}")
            finally:
                stop[0] = 1  # a failed grid's queued trials are skipped
        if stopped:  # the failing trial's worker died before reporting
            raise ReproError("a trial failed in a worker that then died")
