"""The serve scheduler: fair trial dispatch over a persistent pool.

One scheduler thread drains the :class:`~repro.serve.queue.JobQueue`
onto one long-lived :class:`~repro.orchestrate.WorkerPool`, trial by
trial, through the :class:`~repro.orchestrate.Dispatcher` core that
:meth:`Session.run <repro.scenarios.Session.run>` also runs on: it
lands cache hits without touching the pool, runs identical in-flight
trials once across jobs, retries a trial lost to a worker crash once
before degrading its job to ``partial`` — never a hang — and marks a
job ``failed`` when a trial raises.  The scheduler adds **per-job
fairness**: dispatch round-robins over the highest-priority jobs that
still have pending trials, one trial at a time, so a 500-trial sweep
and a 3-trial smoke admitted together interleave and the small job
finishes early instead of queueing behind the sweep.  A job whose
whole grid landed gets its report from
:meth:`Session.build_report <repro.scenarios.Session.build_report>`.
"""

from __future__ import annotations

import threading

from repro.machine.spec import MachineSpec
from repro.orchestrate import Dispatcher, ResultCache, WorkerPool
from repro.scenarios.session import RunReport, Session
from repro.serve.queue import Job, JobQueue


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
    ) -> None:
        self.queue = queue
        self.pool = pool
        self.cache = cache
        self.session = Session(machine=machine)
        self.dispatcher = Dispatcher(pool, cache, report=self._report)
        self._rr = 0  # fairness rotation counter
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def trials_executed(self) -> int:
        """Trials the pool computed (a dedup rider is not counted)."""
        return self.dispatcher.trials_executed

    @property
    def trials_cached(self) -> int:
        """Trials landed from the cache."""
        return self.dispatcher.trials_cached

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
            if self.dispatcher.busy:
                self.dispatcher.step(timeout=0.05)
            else:
                with self.queue.changed:
                    if not self._has_work():
                        self.queue.changed.wait(timeout=0.2)

    def _has_work(self) -> bool:
        return any(
            j.pending or j.state == "queued" for j in self.queue.runnable()
        )

    def _admit(self) -> None:
        for job in self.queue.runnable():
            if job.state == "queued":
                self.dispatcher.admit(job)

    # -- dispatch: fairness round-robin ------------------------------------

    def _dispatch(self) -> None:
        while self.dispatcher.has_room():
            picked = self._pick()
            if picked is None:
                return
            job, idx = picked
            self.dispatcher.dispatch(job, idx, self.session.trial_fn(job.spec))

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

    # -- reports -----------------------------------------------------------

    def _report(self, job: Job) -> RunReport:
        return self.session.build_report(
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
