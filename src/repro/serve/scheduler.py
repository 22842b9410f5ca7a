"""The serve scheduler: fair trial dispatch over a persistent pool.

One scheduler thread drains the :class:`~repro.serve.queue.JobQueue`
onto one long-lived :class:`~repro.orchestrate.WorkerPool`, trial by
trial.  Three properties distinguish it from a per-job
:class:`~repro.orchestrate.ParallelRunner`:

**Cache fast path.**  At admission every trial key is probed against
the shared :class:`~repro.orchestrate.ResultCache`; hits land
immediately without touching the pool, so resubmitting an
already-computed spec is a near-instant pure replay (the
``serve_cache_replay`` benchmark entry).

**Per-job fairness.**  Dispatch round-robins over the highest-priority
jobs that still have pending trials, one trial at a time — a 500-trial
sweep and a 3-trial smoke admitted together interleave, so the small
job finishes early instead of queueing behind the sweep.

**Fault containment.**  A worker killed mid-trial surfaces as a pool
``lost`` event: the trial is retried (up to ``max_retries``) on the
replacement worker; a trial lost for good degrades the job to the
``partial`` terminal state with the loss recorded — never a hang.  A
trial that *raises* marks the job ``failed`` with the error.

In-flight deduplication keys on the trial cache key: if two live jobs
need the same trial, it is computed once and the result lands in both
(``tests/serve/test_cache_stress.py`` pins compute-at-most-once).
"""

from __future__ import annotations

import threading
from typing import Any

from repro.machine.spec import MachineSpec
from repro.orchestrate import ResultCache, WorkerPool
from repro.scenarios.session import Session
from repro.serve.queue import Job, JobQueue

_MISS = object()


class Scheduler:
    """Drains the job queue onto the worker pool, fairly and fault-tolerantly.

    ``machine`` overrides every spec's machine preset (tests run the
    small machine); ``cache`` is the shared content-addressed store —
    optional, but without it every resubmission recomputes.
    """

    def __init__(
        self,
        queue: JobQueue,
        pool: WorkerPool,
        cache: ResultCache | None = None,
        machine: MachineSpec | None = None,
        max_retries: int = 1,
    ) -> None:
        self.queue = queue
        self.pool = pool
        self.cache = cache
        self.session = Session(machine=machine)
        self.max_retries = max_retries
        #: pool task id -> trial cache key
        self._task_key: dict[int, str] = {}
        #: trial cache key -> jobs waiting on it: [(job, index), ...]
        self._owners: dict[str, list[tuple[Job, int]]] = {}
        #: per-job in-flight trial count (dedup followers included)
        self._inflight: dict[str, int] = {}
        self._rr = 0  # fairness rotation counter
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.trials_executed = 0
        self.trials_cached = 0

    # -- lifecycle ---------------------------------------------------------

    def start(self) -> None:
        """Run the dispatch loop in a daemon thread."""
        assert self._thread is None, "scheduler already started"
        self._thread = threading.Thread(
            target=self._run, name="serve-scheduler", daemon=True
        )
        self._thread.start()

    def stop(self, timeout: float = 5.0) -> None:
        """Signal the loop to exit and join it."""
        self._stop.set()
        with self.queue.changed:
            self.queue.changed.notify_all()
        if self._thread is not None:
            self._thread.join(timeout=timeout)
            self._thread = None

    # -- main loop ---------------------------------------------------------

    def _run(self) -> None:
        while not self._stop.is_set():
            self._admit()
            self._dispatch()
            if self._task_key:
                event = self.pool.next_event(timeout=0.05)
                if event is not None:
                    self._handle_event(*event)
            else:
                with self.queue.changed:
                    if not self._has_work():
                        self.queue.changed.wait(timeout=0.2)

    def _has_work(self) -> bool:
        return any(
            j.pending or j.state == "queued" for j in self.queue.runnable()
        )

    # -- admission: cache fast path ---------------------------------------

    def _admit(self) -> None:
        for job in self.queue.runnable():
            if job.state != "queued":
                continue
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
            self._maybe_finish(job)

    # -- dispatch: fairness round-robin ------------------------------------

    def _dispatch(self) -> None:
        while len(self._task_key) < self.pool.workers:
            picked = self._pick()
            if picked is None:
                return
            job, idx = picked
            key = job.keys[idx]
            if self.cache is not None:
                # a twin trial may have completed since this job was
                # admitted; probing again here makes "each unique trial
                # computed at most once" hold under any interleaving
                hit = self.cache.get(key, _MISS)
                if hit is not _MISS:
                    self.trials_cached += 1
                    job.land_row(idx, hit, cached=True)
                    self._maybe_finish(job)
                    continue
            self._inflight[job.id] = self._inflight.get(job.id, 0) + 1
            if key in self._owners:
                # identical trial already in flight: ride along
                self._owners[key].append((job, idx))
                continue
            self._owners[key] = [(job, idx)]
            task_id = self.pool.submit(
                self.session.trial_fn(job.spec), job.trial_specs[idx]
            )
            self._task_key[task_id] = key

    def _pick(self) -> tuple[Job, int] | None:
        """The next (job, trial) to dispatch, fairly.

        Among non-terminal jobs with pending trials, only the highest
        priority class is eligible; within it, rotation picks the job —
        so equal-priority jobs interleave trial-for-trial regardless of
        grid size.
        """
        candidates = [
            j for j in self.queue.runnable()
            if j.state == "running" and j.pending
        ]
        if not candidates:
            return None
        top = candidates[0].priority
        group = [j for j in candidates if j.priority == top]
        job = group[self._rr % len(group)]
        self._rr += 1
        with job.cond:
            # re-check the state under the job lock: a cancel landing
            # between the candidate snapshot above and this pop must
            # win — otherwise the first trial of a just-cancelled job
            # would still be dispatched as an orphan
            if job.state != "running" or not job.pending:
                return None
            idx = job.pending.pop(0)
        return job, idx

    # -- completion handling ----------------------------------------------

    def _handle_event(self, kind: str, task_id: int, payload: Any) -> None:
        key = self._task_key.pop(task_id, None)
        if key is None:
            return
        owners = self._owners.pop(key, [])
        if kind == "done":
            if self.cache is not None:
                self.cache.put(key, payload)
            self.trials_executed += 1
            for job, idx in owners:
                self._inflight[job.id] -= 1
                if not job.is_terminal():
                    job.land_row(idx, payload, cached=False)
                self._maybe_finish(job)
        elif kind == "lost":
            for job, idx in owners:
                self._inflight[job.id] -= 1
                if job.is_terminal():
                    continue
                with job.cond:
                    tries = job.retries.get(idx, 0)
                    if tries < self.max_retries:
                        job.retries[idx] = tries + 1
                        job.pending.append(idx)
                    else:
                        job.lost[idx] = str(payload)
                self._maybe_finish(job)
        else:  # trial raised: the job cannot produce its grid
            message = (
                f"{type(payload).__name__}: {payload}"
                if isinstance(payload, BaseException)
                else str(payload)
            )
            for job, idx in owners:
                self._inflight[job.id] -= 1
                with job.cond:
                    job.error = f"trial {idx} failed: {message}"
                job.set_state("failed")

    def _maybe_finish(self, job: Job) -> None:
        """Finalize a job whose last trial just resolved."""
        with job.cond:
            if job.state in ("done", "partial", "failed", "cancelled"):
                return
            busy = (
                job.pending
                or self._inflight.get(job.id, 0) > 0
                or job.completed + len(job.lost) < job.total
            )
            if busy:
                return
        if job.lost:
            with job.cond:
                job.error = (
                    f"{len(job.lost)} of {job.total} trials lost to worker "
                    "crashes after retries"
                )
            job.set_state("partial")
        elif job.subset:
            # a sub-grid shard job: rows are the product (the cluster
            # coordinator reassembles and aggregates the full grid) —
            # aggregating a partial plan would be meaningless
            job.set_state("done")
        else:
            job.report = self.session.build_report(
                job.spec,
                job.rows,
                execution={
                    "workers": self.pool.workers,
                    "total_trials": job.total,
                    "cache_hits": job.cached,
                    "executed": job.total - job.cached,
                    "cached": self.cache is not None,
                },
            )
            job.set_state("done")
        if self.cache is not None:
            self.cache.flush_stats()
