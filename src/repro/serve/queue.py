"""Job queue for the profiling service: priorities and admission.

A :class:`Job` is one submitted scenario: its planned trial grid,
per-trial cache keys, landed rows, and the state machine documented in
:mod:`repro.orchestrate.dispatch`, where the class lives beside the
dispatch core that drives it.  It is re-exported here.

:class:`JobQueue` provides **bounded admission**: at most ``limit``
jobs may be active (queued or running) at once, and a submit beyond
that is rejected immediately with a structured
:class:`~repro.errors.QueueFullError` — backpressure the client can
see and act on, never a silent hang.  Priorities are honoured at
dispatch time by the scheduler (higher first, FIFO within a class);
terminal jobs stay retrievable for ``results`` until evicted by
:meth:`JobQueue.prune`, which every admission runs: a long-lived
service keeps its newest 256 terminal jobs, not every job it ever ran.
"""

from __future__ import annotations

import itertools
import threading

from repro.errors import QueueFullError, ServeError
from repro.orchestrate import TrialSpec
from repro.orchestrate.dispatch import JOB_STATES, TERMINAL_STATES, Job
from repro.scenarios.spec import ScenarioSpec

__all__ = ["JOB_STATES", "TERMINAL_STATES", "Job", "JobQueue"]


class JobQueue:
    """Bounded, priority-aware registry of jobs.

    The queue is the synchronisation point between protocol handler
    threads (submitting, cancelling) and the scheduler thread
    (dispatching): :attr:`changed` is notified on every admission or
    cancellation so the scheduler never polls blind.
    """

    def __init__(self, limit: int = 16) -> None:
        if limit < 1:
            raise ServeError(f"queue limit must be >= 1, got {limit}")
        self.limit = limit
        self._jobs: dict[str, Job] = {}
        self._seq = itertools.count()
        # reentrant: the scheduler inspects the queue while holding
        # ``changed`` (same lock) during its idle wait
        self._lock = threading.RLock()
        self.changed = threading.Condition(self._lock)

    # -- admission ---------------------------------------------------------

    def active_count(self) -> int:
        """Jobs currently queued or running (what admission bounds)."""
        with self._lock:
            return self._active_locked()

    def _active_locked(self) -> int:
        return sum(1 for j in self._jobs.values() if not j.is_terminal())

    def submit(
        self,
        spec: ScenarioSpec,
        trial_specs: list[TrialSpec],
        keys: list[str],
        priority: int = 0,
        subset: bool = False,
        job_id: str | None = None,
        force: bool = False,
    ) -> Job:
        """Admit a job or raise :class:`QueueFullError` with the facts.

        Admission also runs :meth:`prune`, so terminal jobs beyond the
        newest 256 stop holding their rows and events.

        ``job_id`` pins the identity instead of minting one — the
        coordinator's journal resume re-admits a crashed-through job
        under its original id so clients polling it keep working.
        ``force`` bypasses the admission bound (resume must re-adopt
        every journaled job, even more than ``limit`` of them).
        """
        with self._lock:
            active = self._active_locked()
            if active >= self.limit and not force:
                raise QueueFullError(
                    f"job queue is full ({active}/{self.limit} active jobs); "
                    "retry after a job finishes",
                    active=active,
                    limit=self.limit,
                )
            if job_id is not None and job_id in self._jobs:
                raise ServeError(
                    f"job id {job_id!r} already exists", job_id=job_id
                )
            seq = next(self._seq)
            if job_id is None:
                job_id = f"job-{seq}-{spec.spec_hash()[:8]}"
            job = Job(
                trial_specs, keys, job_id=job_id, seq=seq, spec=spec,
                priority=int(priority), subset=subset,
            )
            self.prune()
            self._jobs[job_id] = job
            self.changed.notify_all()
            return job

    # -- lookup ------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        """The job by id, or a structured ``unknown_job`` error."""
        with self._lock:
            try:
                return self._jobs[job_id]
            except KeyError:
                raise ServeError(
                    f"unknown job {job_id!r}", code="unknown_job"
                ) from None

    def jobs(self) -> list[Job]:
        """Every known job, in submission order."""
        with self._lock:
            return sorted(self._jobs.values(), key=lambda j: j.seq)

    def runnable(self) -> list[Job]:
        """Non-terminal jobs in dispatch order: priority desc, FIFO in."""
        with self._lock:
            live = [j for j in self._jobs.values() if not j.is_terminal()]
        return sorted(live, key=lambda j: (-j.priority, j.seq))

    # -- mutation ----------------------------------------------------------

    def cancel(self, job_id: str) -> str:
        """Cancel a job (idempotent on terminal jobs); returns its state."""
        job = self.get(job_id)
        job.set_state("cancelled")
        with self._lock:
            self.changed.notify_all()
        return job.state

    def prune(self, keep: int = 256) -> int:
        """Drop the oldest terminal jobs beyond ``keep``; returns dropped."""
        with self._lock:
            if len(self._jobs) <= keep:
                return 0
            done = sorted(
                (j for j in self._jobs.values() if j.is_terminal()),
                key=lambda j: j.seq,
            )
            drop = done[: max(0, len(done) - keep)]
            for j in drop:
                del self._jobs[j.id]
            return len(drop)
