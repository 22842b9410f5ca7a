"""JobQueue: job states, priorities, bounded admission."""

import pytest

from repro.errors import QueueFullError, ServeError
from repro.orchestrate import cache_key
from repro.scenarios import Session
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import JOB_STATES, TERMINAL_STATES, JobQueue


def smoke_spec(name="queue-test", trials=2, seed=0):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


def submit(queue, spec=None, priority=0):
    spec = spec or smoke_spec()
    trial_specs = Session().plan(spec)
    keys = [cache_key(t.experiment, t.config, t.seed) for t in trial_specs]
    return queue.submit(spec, trial_specs, keys, priority=priority)


class TestStates:
    def test_new_job_is_queued(self):
        job = submit(JobQueue())
        assert job.state == "queued"
        assert not job.is_terminal()
        assert job.pending == list(range(job.total))

    def test_terminal_states_are_terminal(self):
        assert TERMINAL_STATES == {"done", "partial", "failed", "cancelled"}
        assert set(JOB_STATES) >= TERMINAL_STATES

    def test_terminal_state_is_sticky(self):
        job = submit(JobQueue())
        job.set_state("cancelled")
        job.set_state("running")  # no-op: cancelled is terminal
        assert job.state == "cancelled"

    def test_land_row_counts_and_events(self):
        job = submit(JobQueue())
        job.land_row(1, {"v": 1}, cached=True)
        job.land_row(0, {"v": 0}, cached=False)
        assert (job.completed, job.cached) == (2, 1)
        assert [e["index"] for e in job.events] == [1, 0]
        assert job.rows == [{"v": 0}, {"v": 1}]

    def test_relanding_does_not_double_count(self):
        job = submit(JobQueue())
        job.land_row(0, {"v": 0}, cached=False)
        job.land_row(0, {"v": 0}, cached=False)
        assert job.completed == 1

    def test_snapshot_shape(self):
        job = submit(JobQueue())
        snap = job.snapshot()
        assert snap["job_id"] == job.id
        assert snap["state"] == "queued"
        assert snap["total"] == 2
        assert snap["spec_hash"] == job.spec.spec_hash()

    def test_events_since_returns_new_events(self):
        job = submit(JobQueue())
        job.land_row(0, {"v": 0}, cached=False)
        events, state = job.events_since(0, timeout=0.01)
        assert len(events) == 1 and state == "queued"
        events, _ = job.events_since(1, timeout=0.01)
        assert events == []

    def test_wait_terminal_returns_state(self):
        job = submit(JobQueue())
        job.set_state("done")
        assert job.wait_terminal(timeout=0.1) == "done"


class TestAdmission:
    def test_bounded_with_structured_rejection(self):
        queue = JobQueue(limit=2)
        submit(queue, smoke_spec(seed=1))
        submit(queue, smoke_spec(seed=2))
        with pytest.raises(QueueFullError) as exc:
            submit(queue, smoke_spec(seed=3))
        err = exc.value
        assert err.code == "queue_full"
        assert err.details == {"active": 2, "limit": 2}

    def test_terminal_jobs_free_capacity(self):
        queue = JobQueue(limit=1)
        first = submit(queue, smoke_spec(seed=1))
        first.set_state("done")
        submit(queue, smoke_spec(seed=2))  # admitted: first no longer active
        assert queue.active_count() == 1

    def test_job_ids_are_unique(self):
        queue = JobQueue(limit=4)
        spec = smoke_spec()
        ids = {submit(queue, spec).id for _ in range(3)}
        assert len(ids) == 3

    def test_limit_must_be_positive(self):
        with pytest.raises(ServeError):
            JobQueue(limit=0)


class TestLookupAndOrder:
    def test_get_unknown_job_is_structured(self):
        with pytest.raises(ServeError) as exc:
            JobQueue().get("job-nope")
        assert exc.value.code == "unknown_job"

    def test_runnable_orders_by_priority_then_fifo(self):
        queue = JobQueue(limit=8)
        low = submit(queue, smoke_spec(seed=1), priority=0)
        high = submit(queue, smoke_spec(seed=2), priority=5)
        low2 = submit(queue, smoke_spec(seed=3), priority=0)
        assert [j.id for j in queue.runnable()] == [high.id, low.id, low2.id]

    def test_runnable_excludes_terminal(self):
        queue = JobQueue(limit=8)
        job = submit(queue)
        queue.cancel(job.id)
        assert queue.runnable() == []

    def test_cancel_is_idempotent(self):
        queue = JobQueue(limit=8)
        job = submit(queue)
        assert queue.cancel(job.id) == "cancelled"
        assert queue.cancel(job.id) == "cancelled"

    def test_cancel_does_not_override_done(self):
        queue = JobQueue(limit=8)
        job = submit(queue)
        job.set_state("running")
        job.set_state("done")
        assert queue.cancel(job.id) == "done"

    def test_prune_keeps_recent_terminal_jobs(self):
        queue = JobQueue(limit=16)
        jobs = [submit(queue, smoke_spec(seed=i)) for i in range(5)]
        for j in jobs:
            j.set_state("done")
        assert queue.prune(keep=2) == 3
        kept = [j.id for j in queue.jobs()]
        assert kept == [jobs[3].id, jobs[4].id]

    def test_admission_bounds_the_registry(self):
        # a long-lived server settles jobs forever: admission keeps the
        # newest 256 terminal jobs and never drops an active one
        queue = JobQueue(limit=4)
        spec = smoke_spec()
        trial_specs = Session().plan(spec)
        keys = [
            cache_key(t.experiment, t.config, t.seed) for t in trial_specs
        ]
        active = queue.submit(spec, trial_specs, keys)  # oldest, never ends
        settled = []
        for _ in range(300):
            job = queue.submit(spec, trial_specs, keys)
            job.set_state("done")
            settled.append(job)
            assert queue.get(active.id) is active
        latest = queue.submit(spec, trial_specs, keys)
        terminal = [j.id for j in queue.jobs() if j.is_terminal()]
        assert terminal == [j.id for j in settled[-256:]]
        assert [j.id for j in queue.runnable()] == [active.id, latest.id]
