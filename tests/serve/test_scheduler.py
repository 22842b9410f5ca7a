"""Scheduler policy: fairness, priorities, cache fast path, faults.

These tests drive the scheduler's decision methods — and its dispatch
core's event handler — synchronously against a stub pool, so dispatch
order and fault handling are pinned deterministically (no threads, no
real workers).  The real-pool path is covered end-to-end in
``test_server_e2e.py`` / ``test_faults.py``.
"""

import itertools

from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import JobQueue, Scheduler


class StubPool:
    """Records submissions; completions are injected by the test."""

    def __init__(self, workers=2):
        self.workers = workers
        self.submitted = []  # (task_id, fn, arg) in dispatch order
        self._ids = itertools.count()

    def submit(self, fn, arg):
        task_id = next(self._ids)
        self.submitted.append((task_id, fn, arg))
        return task_id


def profile_spec(name, trials, seed=0):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


def submit(queue, spec, priority=0):
    trial_specs = Session().plan(spec)
    keys = [cache_key(t.experiment, t.config, t.seed) for t in trial_specs]
    return queue.submit(spec, trial_specs, keys, priority=priority)


def make_scheduler(workers=2, cache=None, limit=16):
    queue = JobQueue(limit=limit)
    pool = StubPool(workers=workers)
    sched = Scheduler(queue, pool, cache=cache)
    return queue, pool, sched


def drain(sched, pool, row=None, rounds=100):
    """Admit/dispatch/complete until the pool goes idle; returns the
    per-task completion order as job ids."""
    core = sched.dispatcher
    order = []
    for _ in range(rounds):
        sched._admit()
        sched._dispatch()
        if not core._tasks:
            return order
        task_id = min(core._tasks)  # oldest in-flight finishes first
        owners = core._owners[core._tasks[task_id]]
        order.extend(job.id for job, _ in owners)
        core.handle("done", task_id, row or {"metric": 1.0})
    raise AssertionError("scheduler did not drain")


class TestFairness:
    def test_small_job_is_not_starved_by_big_sweep(self):
        queue, pool, sched = make_scheduler(workers=1)
        big = submit(queue, profile_spec("big", trials=8, seed=1))
        small = submit(queue, profile_spec("small", trials=2, seed=2))
        order = drain(sched, pool)
        # round-robin: the 2-trial job's last trial lands well before
        # the 8-trial job's, even though the sweep was submitted first
        assert order.index(small.id, order.index(small.id) + 1) <= 3
        assert small.state == "done" and big.state == "done"

    def test_equal_priority_jobs_interleave(self):
        queue, pool, sched = make_scheduler(workers=1)
        a = submit(queue, profile_spec("a", trials=3, seed=1))
        b = submit(queue, profile_spec("b", trials=3, seed=2))
        order = drain(sched, pool)
        assert order[:4] == [a.id, b.id, a.id, b.id]

    def test_higher_priority_runs_first(self):
        queue, pool, sched = make_scheduler(workers=1)
        low = submit(queue, profile_spec("low", trials=2, seed=1), priority=0)
        high = submit(
            queue, profile_spec("high", trials=2, seed=2), priority=9
        )
        order = drain(sched, pool)
        assert order[:2] == [high.id, high.id]
        assert low.state == "done"

    def test_dispatch_bounded_by_pool_capacity(self):
        queue, pool, sched = make_scheduler(workers=2)
        submit(queue, profile_spec("j", trials=6))
        sched._admit()
        sched._dispatch()
        assert len(pool.submitted) == 2  # never more in flight than workers


class TestCacheFastPath:
    def test_full_hit_job_never_touches_the_pool(self, tmp_path):
        cache = ResultCache(tmp_path)
        queue, pool, sched = make_scheduler(cache=cache)
        job = submit(queue, profile_spec("warm", trials=2))
        for key in job.keys:
            cache.put(key, {"metric": 1.0})
        sched._admit()
        assert job.state == "done"
        assert pool.submitted == []
        assert job.cached == job.total == 2
        assert sched.trials_cached == 2
        assert job.report is not None

    def test_partial_hits_only_dispatch_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        queue, pool, sched = make_scheduler(workers=4, cache=cache)
        job = submit(queue, profile_spec("mixed", trials=3))
        cache.put(job.keys[1], {"metric": 1.0})
        sched._admit()
        sched._dispatch()
        assert len(pool.submitted) == 2
        assert job.cached == 1

    def test_executed_results_are_cached_for_replay(self, tmp_path):
        cache = ResultCache(tmp_path)
        queue, pool, sched = make_scheduler(workers=4, cache=cache)
        job = submit(queue, profile_spec("first", trials=2))
        drain(sched, pool)
        assert job.state == "done"
        replay = submit(queue, profile_spec("first", trials=2))
        sched._admit()
        assert replay.state == "done" and replay.cached == 2


class TestDedup:
    def test_identical_inflight_trials_computed_once(self):
        queue, pool, sched = make_scheduler(workers=4)
        spec = profile_spec("dup", trials=2)
        a = submit(queue, spec)
        b = submit(queue, spec)
        sched._admit()
        sched._dispatch()
        assert len(pool.submitted) == 2  # 2 unique trials, not 4
        drain(sched, pool)
        assert a.state == b.state == "done"
        assert a.rows == b.rows


class TestFaults:
    def test_lost_trial_is_retried_then_done(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("retry", trials=1))
        sched._admit()
        sched._dispatch()
        (task_id, _fn, _arg) = pool.submitted[0]
        sched.dispatcher.handle("lost", task_id, "worker 123 died")
        assert job.state == "running" and job.pending == [0]
        drain(sched, pool)
        assert job.state == "done" and job.retries == {0: 1}

    def test_exhausted_retries_degrade_to_partial(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("lossy", trials=2))
        doomed = job.trial_specs[0]
        for _ in range(10):  # trial 0 dies on both of its attempts
            sched._admit()
            sched._dispatch()
            if not sched.dispatcher.busy:
                break
            (task_id, _fn, arg) = pool.submitted[-1]
            if arg == doomed:
                sched.dispatcher.handle("lost", task_id, "worker 123 died")
            else:
                sched.dispatcher.handle("done", task_id, {"metric": 1.0})
        assert [arg for _, _, arg in pool.submitted].count(doomed) == 2
        assert job.state == "partial"
        assert list(job.lost) == [0]
        assert "worker 123 died" in job.lost[0]
        assert "lost" in job.error

    def test_raising_trial_fails_the_job(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("bad", trials=1))
        sched._admit()
        sched._dispatch()
        (task_id, _fn, _arg) = pool.submitted[0]
        sched.dispatcher.handle("error", task_id, ValueError("boom"))
        assert job.state == "failed"
        assert "ValueError: boom" in job.error

    def test_cancelled_job_ignores_late_completions(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("gone", trials=2))
        sched._admit()
        sched._dispatch()
        queue.cancel(job.id)
        (task_id, _fn, _arg) = pool.submitted[0]
        sched.dispatcher.handle("done", task_id, {"metric": 1.0})
        assert job.state == "cancelled"
        assert job.completed == 0

    def test_error_after_cancel_keeps_the_cancelled_outcome(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("gone-bad", trials=1))
        sched._admit()
        sched._dispatch()
        queue.cancel(job.id)
        (task_id, _fn, _arg) = pool.submitted[0]
        sched.dispatcher.handle("error", task_id, ValueError("boom"))
        snap = job.snapshot()
        assert (snap["state"], snap["error"]) == ("cancelled", None)


class TestBoundedState:
    """A long-running server keeps no per-job dispatch state for jobs
    that have nothing in flight."""

    def test_settled_jobs_leave_no_inflight_entry(self):
        queue, pool, sched = make_scheduler(workers=2)
        states = set()
        for i in range(50):
            job = submit(queue, profile_spec(f"j{i}", trials=2, seed=10 * i))
            drain(sched, pool)
            states.add(job.state)
        assert states == {"done"}
        assert sched.dispatcher._inflight == {}

    def test_cancelled_job_entry_goes_with_its_last_trial(self):
        queue, pool, sched = make_scheduler(workers=2)
        job = submit(queue, profile_spec("gone", trials=2))
        sched._admit()
        sched._dispatch()
        queue.cancel(job.id)
        for task_id, _fn, _arg in pool.submitted:
            sched.dispatcher.handle("done", task_id, {"metric": 1.0})
        assert sched.dispatcher._inflight == {}


class CancelOnEnter:
    """Condition proxy that fires a callback in the lock-acquisition
    window — the exact interleaving where a cancel races ``_pick``'s
    pending-pop."""

    def __init__(self, cond, fire):
        self._cond = cond
        self._fire = fire

    def __enter__(self):
        self._fire()
        return self._cond.__enter__()

    def __exit__(self, *exc):
        return self._cond.__exit__(*exc)

    def __getattr__(self, name):
        return getattr(self._cond, name)


class TestCancelRacesDispatch:
    """A cancel landing between admission and the first trial dispatch
    must yield a sticky ``cancelled`` — never a running-forever job,
    never a dispatched orphan trial."""

    def test_cancel_between_admission_and_dispatch(self):
        queue, pool, sched = make_scheduler(workers=2)
        job = submit(queue, profile_spec("race", trials=3))
        sched._admit()        # queued -> running
        queue.cancel(job.id)  # lands before any dispatch happened
        sched._dispatch()
        assert pool.submitted == []       # no orphan trial
        assert job.state == "cancelled"   # sticky
        sched._admit()
        sched._dispatch()
        assert pool.submitted == [] and job.state == "cancelled"

    def test_cancel_in_the_pick_window_dispatches_nothing(self):
        # the narrowest race: the scheduler snapshotted this job as a
        # running candidate, then the cancel lands just as _pick goes
        # to pop its first pending index
        queue, pool, sched = make_scheduler(workers=2)
        job = submit(queue, profile_spec("race-window", trials=2))
        sched._admit()
        fired = []

        def fire():
            if not fired:
                fired.append(True)
                queue.cancel(job.id)

        job.cond = CancelOnEnter(job.cond, fire)
        sched._dispatch()
        assert fired, "the race window was never exercised"
        assert pool.submitted == []
        assert job.state == "cancelled"
        assert job.pending == [0, 1]  # nothing was popped for dispatch

    def test_cancel_before_admission_never_runs(self):
        queue, pool, sched = make_scheduler(workers=2)
        job = submit(queue, profile_spec("race-early", trials=2))
        queue.cancel(job.id)
        sched._admit()
        sched._dispatch()
        assert pool.submitted == [] and job.state == "cancelled"


class TestSubsetJobs:
    """Sub-grid jobs (the cluster sharding primitive) finish ``done``
    without a report — only the full grid aggregates meaningfully."""

    def test_subset_job_completes_without_a_report(self):
        queue, pool, sched = make_scheduler(workers=2)
        spec = profile_spec("subset", trials=3)
        trial_specs = Session().plan(spec)
        keys = [
            cache_key(t.experiment, t.config, t.seed) for t in trial_specs
        ]
        job = queue.submit(
            spec, trial_specs[:2], keys[:2], subset=True
        )
        drain(sched, pool)
        assert job.state == "done"
        assert job.report is None
        assert job.completed == 2
        assert job.snapshot()["subset"] is True

    def test_full_job_snapshot_says_not_subset(self):
        queue, pool, sched = make_scheduler(workers=1)
        job = submit(queue, profile_spec("full", trials=1))
        assert job.snapshot()["subset"] is False
