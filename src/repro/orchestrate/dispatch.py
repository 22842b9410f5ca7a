"""The one trial-dispatch core: cache probe, dedup, retries, landing.

Every in-process client of a trial grid — :meth:`ParallelRunner.map
<repro.orchestrate.ParallelRunner.map>` at any worker count, and the
serve scheduler for each job it admits — hands the grid to a
:class:`Dispatcher` as a :class:`Job`.  The dispatcher owns the cache
probe, at most one pool task per cache key in flight, the retry budget
for trials lost to worker crashes (:data:`MAX_RETRIES`), landing rows
into the job, and settling it.  A client keeps only the choice of
which pending trial runs next, and its executor: a
:class:`~repro.orchestrate.WorkerPool`, or an :class:`InlinePool` that
runs trials in the calling process behind the same
``submit``/``next_event`` shape.  Clients submit at most
``pool.workers`` trials at a time, so no trial queues behind a failing
one.

A job moves through these states::

    queued ──► running ──► done        (every trial landed)
                   │   └──► partial    (some trials lost for good)
                   ├──────► failed     (a trial raised)
    queued/running ───────► cancelled  (client asked)

``partial``/``done``/``failed``/``cancelled`` are terminal.  Rows land
append-only in ``events`` (the stream service clients replay) and
positionally in ``rows`` (what a report aggregates); each job carries
its own condition variable so streaming readers wake exactly when a
row lands or the state flips.
"""

from __future__ import annotations

import collections
import itertools
import threading
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.orchestrate.cache import ResultCache
    from repro.orchestrate.pool import WorkerPool
    from repro.orchestrate.runner import TrialSpec
    from repro.scenarios.spec import ScenarioSpec

#: every state a job can be in
JOB_STATES = ("queued", "running", "done", "partial", "failed", "cancelled")

#: states in which no further work happens
TERMINAL_STATES = frozenset({"done", "partial", "failed", "cancelled"})

#: times a trial lost to a worker crash is run again before its job
#: records it lost
MAX_RETRIES = 1

_MISS = object()


class Job:
    """One trial grid and everything it has produced so far.

    ``keys`` are the trials' cache keys, index for index.  ``spec`` is
    the scenario a service job was planned from (``None`` for a bare
    runner grid).  All mutable fields are guarded by :attr:`cond`'s
    lock; readers should use :meth:`snapshot` / :meth:`events_since`
    instead of touching fields directly.
    """

    def __init__(
        self,
        trial_specs: list[TrialSpec],
        keys: list[str],
        *,
        job_id: str = "",
        seq: int = 0,
        spec: ScenarioSpec | None = None,
        priority: int = 0,
        subset: bool = False,
    ) -> None:
        self.id = job_id
        self.seq = seq
        self.spec = spec
        self.priority = priority
        self.trial_specs = trial_specs
        self.keys = keys
        #: True when the grid is a sub-slice of the spec's full plan (a
        #: cluster shard's share); subset jobs produce rows but never a
        #: report — only the full grid aggregates meaningfully
        self.subset = subset
        self.state = "queued"
        self.cond = threading.Condition()
        #: positional trial results (None = not landed / lost)
        self.rows: list[Any] = [None] * len(trial_specs)
        #: append-only landed-row event dicts, in landing order
        self.events: list[dict] = []
        #: trial indices not yet dispatched (the client's work list)
        self.pending: list[int] = list(range(len(trial_specs)))
        #: per-trial retry counts after worker loss
        self.retries: dict[int, int] = {}
        #: indices lost for good (reported in the partial outcome)
        self.lost: dict[int, str] = {}
        self.cached = 0
        self.completed = 0
        self.error: str | None = None
        #: what the failing trial raised (its rendering if unpicklable)
        self.exception: Any = None
        self.report: Any = None  # RunReport once terminal and aggregable

    # -- state -------------------------------------------------------------

    @property
    def total(self) -> int:
        """Trial-grid size."""
        return len(self.trial_specs)

    def is_terminal(self) -> bool:
        """Whether the job reached a terminal state (lock-free read)."""
        return self.state in TERMINAL_STATES

    def set_state(self, state: str) -> None:
        """Transition (no-op when already terminal) and wake waiters."""
        assert state in JOB_STATES, state
        with self.cond:
            if self.state in TERMINAL_STATES:
                return
            self.state = state
            self.cond.notify_all()

    def land_row(self, index: int, row: Any, cached: bool) -> None:
        """Record one finished trial and wake streaming readers.

        Idempotent per index: a re-landed row (a cluster shard retried
        after its first agent died mid-pull) updates nothing and emits
        no second event, so streams carry exactly one row per trial.
        """
        with self.cond:
            if self.rows[index] is None:
                self.completed += 1
                self.cached += 1 if cached else 0
                self.rows[index] = row
                self.events.append(
                    {"index": index, "cached": cached, "row": row}
                )
            self.cond.notify_all()

    # -- reads -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A consistent status view (what the ``status`` op returns)."""
        with self.cond:
            return {
                "job_id": self.id,
                "state": self.state,
                "priority": self.priority,
                "spec_name": self.spec.name,
                "spec_hash": self.spec.spec_hash(),
                "kind": self.spec.kind,
                "total": self.total,
                "completed": self.completed,
                "cached": self.cached,
                "lost": sorted(self.lost),
                "error": self.error,
                "subset": self.subset,
            }

    def events_since(self, start: int, timeout: float) -> tuple[list, str]:
        """Events landed at/after ``start`` plus the state, blocking up
        to ``timeout`` seconds when there is nothing new yet."""
        with self.cond:
            if len(self.events) <= start and self.state not in TERMINAL_STATES:
                self.cond.wait(timeout=timeout)
            return list(self.events[start:]), self.state

    def wait_terminal(self, timeout: float | None = None) -> str:
        """Block until the job is terminal (or timeout); returns state."""
        with self.cond:
            self.cond.wait_for(
                lambda: self.state in TERMINAL_STATES, timeout=timeout
            )
            return self.state


class InlinePool:
    """Runs trials in the calling process behind ``WorkerPool``'s shape.

    A trial runs when :meth:`next_event` reads it, in submission order.
    Nothing is pickled, so any callable works, and a trial's exception
    is reported as the very object it raised.
    """

    workers = 1

    def __init__(self) -> None:
        self._tasks: collections.deque = collections.deque()
        self._task_ids = itertools.count()

    def __enter__(self) -> "InlinePool":
        return self

    def __exit__(self, *exc) -> None:
        self._tasks.clear()

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> int:
        """Queue one task; returns its id."""
        task_id = next(self._task_ids)
        self._tasks.append((task_id, fn, arg))
        return task_id

    def next_event(
        self, timeout: float | None = None
    ) -> tuple[str, int, Any] | None:
        """Run the oldest queued task; ``None`` when there is none."""
        if not self._tasks:
            return None
        task_id, fn, arg = self._tasks.popleft()
        try:
            return ("done", task_id, fn(arg))
        except Exception as exc:  # reported like a worker's error event
            return ("error", task_id, exc)


class Dispatcher:
    """Runs the trials of any number of jobs on one executor.

    ``pool`` is the executor (a client that sizes it after admission
    sets it before the first :meth:`dispatch`); ``cache`` is the shared
    :class:`~repro.orchestrate.ResultCache`, or ``None``; ``report``
    builds the report of a job whose whole grid landed (``None``: the
    rows are the product, as they are for subset jobs).
    """

    def __init__(
        self,
        pool: WorkerPool | InlinePool | None = None,
        cache: ResultCache | None = None,
        report: Callable[[Job], Any] | None = None,
    ) -> None:
        self.pool = pool
        self.cache = cache
        self.report = report
        #: pool task id -> trial cache key
        self._tasks: dict[int, str] = {}
        #: trial cache key -> the (job, index) slots waiting on it
        self._owners: dict[str, list[tuple[Job, int]]] = {}
        #: job id -> its trials in flight, riders included; a job has
        #: an entry only while it has some
        self._inflight: dict[str, int] = {}
        self.trials_executed = 0
        self.trials_cached = 0

    @property
    def busy(self) -> bool:
        """Whether any pool task is in flight."""
        return bool(self._tasks)

    def has_room(self) -> bool:
        """Whether the pool has a worker free for one more task."""
        return len(self._tasks) < self.pool.workers

    def admit(self, job: Job) -> None:
        """Start a job: read every pending trial's key once, land the
        hits, and settle the job if that was all."""
        job.set_state("running")
        if self.cache is not None:
            still_pending = []
            for idx in job.pending:
                hit = self.cache.get(job.keys[idx], _MISS)
                if hit is _MISS:
                    still_pending.append(idx)
                else:
                    self.trials_cached += 1
                    job.land_row(idx, hit, cached=True)
            with job.cond:
                job.pending = still_pending
        self._settle(job)

    def dispatch(
        self, job: Job, index: int, fn: Callable[[Any], Any]
    ) -> None:
        """Run trial ``index`` of ``job``, already taken off its pending
        list: land it from the cache, ride an in-flight twin, or submit
        ``fn(job.trial_specs[index])`` to the pool.

        The cache is probed again because a twin job's trial may have
        landed since admission; ``contains`` comes first, so a miss is
        not read (or counted) twice.
        """
        key = job.keys[index]
        if self.cache is not None and self.cache.contains(key):
            hit = self.cache.get(key, _MISS)
            if hit is not _MISS:
                self.trials_cached += 1
                job.land_row(index, hit, cached=True)
                self._settle(job)
                return
        self._inflight[job.id] = self._inflight.get(job.id, 0) + 1
        if key in self._owners:
            self._owners[key].append((job, index))
            return
        self._owners[key] = [(job, index)]
        self._tasks[self.pool.submit(fn, job.trial_specs[index])] = key

    def step(self, timeout: float | None) -> None:
        """Resolve the next pool event, waiting up to ``timeout``
        seconds (``None``: until one arrives); a no-op when idle."""
        if not self._tasks:
            return
        event = self.pool.next_event(timeout=timeout)
        if event is not None:
            self.handle(*event)

    def handle(self, kind: str, task_id: int, payload: Any) -> None:
        """Resolve one pool event for every job slot waiting on it."""
        key = self._tasks.pop(task_id, None)
        if key is None:
            return
        owners = self._owners.pop(key)
        if kind == "done":
            if self.cache is not None:
                self.cache.put(key, payload)
            self.trials_executed += 1
        for job, idx in owners:
            left = self._inflight.pop(job.id) - 1
            if left:
                self._inflight[job.id] = left
            with job.cond:
                if job.is_terminal():  # cancelled or failed meanwhile
                    continue
                if kind == "done":
                    job.land_row(idx, payload, cached=False)
                elif kind == "lost":
                    tries = job.retries.get(idx, 0)
                    if tries < MAX_RETRIES:
                        job.retries[idx] = tries + 1
                        job.pending.append(idx)
                    else:
                        job.lost[idx] = str(payload)
                else:  # the trial raised: the job cannot produce its grid
                    message = (
                        f"{type(payload).__name__}: {payload}"
                        if isinstance(payload, BaseException)
                        else str(payload)
                    )
                    job.error = f"trial {idx} failed: {message}"
                    job.exception = payload
                    job.set_state("failed")
            if kind != "error":
                self._settle(job)
            elif self.cache is not None:  # the job just failed
                self.cache.flush_stats()

    def _settle(self, job: Job) -> None:
        """Finalize a job whose last trial just resolved."""
        with job.cond:
            if (
                job.is_terminal()
                or job.pending
                or job.id in self._inflight
                or job.completed + len(job.lost) < job.total
            ):
                return
        if job.lost:
            with job.cond:
                job.error = (
                    f"{len(job.lost)} of {job.total} trials lost to worker "
                    "crashes after retries"
                )
            job.set_state("partial")
        else:
            if self.report is not None and not job.subset:
                job.report = self.report(job)
            job.set_state("done")
        if self.cache is not None:
            self.cache.flush_stats()
