"""WorkerPool: persistent workers, event stream, crash recovery.

The pool exists so a long-running driver (the serve scheduler) stops
paying process spin-up and teardown per job: across 50 sequential jobs
the worker PIDs must not change and the parent must not leak file
descriptors.  ``ParallelRunner`` grids run on a pool opened per call.
"""

import os
import signal
import threading
import time

import pytest

from repro.errors import ReproError
from repro.orchestrate import ParallelRunner, TrialSpec, WorkerPool


def echo_task(x):
    return {"value": x * 10, "pid": os.getpid()}


def boom_task(x):
    raise ValueError(f"task {x} exploded")


def unpicklable_error_task(x):
    class Local(Exception):  # local classes cannot pickle
        pass

    raise Local("inner detail")


def stall_task(x):
    (x["pidfile"]).write_text(str(os.getpid()))
    time.sleep(x.get("stall", 60))
    return "never"


def echo_trial(spec: TrialSpec) -> dict:
    return {"value": spec.config["value"] * 10, "seed": spec.seed,
            "pid": os.getpid()}


def trial_specs(n=6):
    return [
        TrialSpec(experiment="pool-test", config={"value": i}, seed=i % 2)
        for i in range(n)
    ]


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


class TestTaskFlow:
    def test_done_events_carry_results(self):
        with WorkerPool(workers=2) as pool:
            ids = [pool.submit(echo_task, i) for i in range(4)]
            got = {}
            while len(got) < 4:
                kind, task_id, payload = pool.next_event(timeout=10)
                assert kind == "done"
                got[task_id] = payload
        assert [got[t]["value"] for t in ids] == [0, 10, 20, 30]

    def test_results_computed_in_workers(self):
        with WorkerPool(workers=2) as pool:
            worker_pids = set(pool.pids())
            pool.submit(echo_task, 1)
            _, _, payload = pool.next_event(timeout=10)
        assert payload["pid"] != os.getpid()
        assert payload["pid"] in worker_pids

    def test_error_events_ship_the_exception(self):
        with WorkerPool(workers=1) as pool:
            pool.submit(boom_task, 7)
            kind, _tid, payload = pool.next_event(timeout=10)
        assert kind == "error"
        assert isinstance(payload, ValueError)
        assert "task 7 exploded" in str(payload)

    def test_unpicklable_errors_degrade_to_strings(self):
        with WorkerPool(workers=1) as pool:
            pool.submit(unpicklable_error_task, 0)
            kind, _tid, payload = pool.next_event(timeout=10)
        assert kind == "error"
        assert isinstance(payload, str)
        assert "inner detail" in payload

    def test_timeout_returns_none(self):
        with WorkerPool(workers=1) as pool:
            assert pool.next_event(timeout=0.05) is None

    def test_outstanding_tracks_undelivered(self):
        with WorkerPool(workers=1) as pool:
            pool.submit(echo_task, 0)
            pool.submit(echo_task, 1)
            assert pool.outstanding == 2
            pool.next_event(timeout=10)
            pool.next_event(timeout=10)
            assert pool.outstanding == 0

    def test_submit_after_close_raises(self):
        pool = WorkerPool(workers=1)
        pool.close()
        with pytest.raises(ReproError, match="closed"):
            pool.submit(echo_task, 0)

    def test_close_reads_events_left_unread(self):
        # thousands of unread events overfill the event pipe; a worker
        # cannot exit until someone reads them, so close() must
        pool = WorkerPool(workers=1)
        for i in range(3000):
            pool.submit(echo_task, i)
        t0 = time.monotonic()
        pool.close(timeout=10)
        assert time.monotonic() - t0 < 5

    def test_needs_at_least_one_worker(self):
        with pytest.raises(ReproError):
            WorkerPool(workers=0)


class TestWorkerReuse:
    def test_stable_pids_and_no_fd_growth_across_50_jobs(self):
        """The reuse contract: 50 sequential jobs on one pool touch the
        same worker processes and leak no descriptors in the parent."""

        def job(pool):
            ids = [pool.submit(echo_trial, s) for s in trial_specs(4)]
            got = {}
            while len(got) < len(ids):
                kind, task_id, payload = pool.next_event(timeout=30)
                assert kind == "done", (kind, payload)
                got[task_id] = payload
            return [got[t] for t in ids]

        with WorkerPool(workers=2) as pool:
            # warm-up settles lazily-created fds (queue feeder threads)
            job(pool)
            pids_before = sorted(pool.pids())
            fds_before = open_fds()
            seen_pids = set()
            for _job in range(50):
                out = job(pool)
                assert [r["value"] for r in out] == [0, 10, 20, 30]
                seen_pids.update(r["pid"] for r in out)
            assert sorted(pool.pids()) == pids_before
            assert seen_pids <= set(pids_before)
            assert open_fds() <= fds_before + 2
        assert len(pids_before) == 2

    def test_pool_runner_matches_serial(self):
        serial = ParallelRunner(workers=1).map(echo_trial, trial_specs())
        pooled = ParallelRunner(workers=3).map(echo_trial, trial_specs())
        for s, p in zip(serial, pooled):
            assert {k: s[k] for k in ("value", "seed")} == {
                k: p[k] for k in ("value", "seed")
            }

    def test_runner_reports_pool_capacity(self):
        runner = ParallelRunner(workers=3)
        assert runner.workers == 3
        out = runner.map(echo_trial, trial_specs())
        assert runner.last_report.workers == 3
        pids = {r["pid"] for r in out}
        assert os.getpid() not in pids and len(pids) <= 3

    def test_pool_survives_runner_exceptions(self):
        # a task that raises (what a runner re-raises) leaves the pool
        # serving the next job on the same workers
        with WorkerPool(workers=2) as pool:
            pids = sorted(pool.pids())
            pool.submit(boom_trial, TrialSpec("pool-test", {"value": 2}, 0))
            kind, _tid, payload = pool.next_event(timeout=30)
            assert kind == "error" and "exploded" in str(payload)
            ids = [pool.submit(echo_trial, s) for s in trial_specs(2)]
            got = {}
            for _ in ids:
                kind, task_id, payload = pool.next_event(timeout=30)
                assert kind == "done"
                got[task_id] = payload
            assert [got[t]["value"] for t in ids] == [0, 10]
            assert sorted(pool.pids()) == pids


def boom_trial(spec: TrialSpec):
    raise ValueError(f"task {spec.config['value']} exploded")


class TestCrashRecovery:
    def test_killed_worker_reports_lost_and_respawns(self, tmp_path):
        pidfile = tmp_path / "pid"
        with WorkerPool(workers=2) as pool:
            task_id = pool.submit(
                stall_task, {"pidfile": pidfile, "stall": 60}
            )
            deadline = time.monotonic() + 30
            while not pidfile.exists():
                assert time.monotonic() < deadline, "task never started"
                time.sleep(0.02)
            victim = int(pidfile.read_text())
            os.kill(victim, signal.SIGKILL)
            kind, lost_id, reason = pool.next_event(timeout=30)
            assert (kind, lost_id) == ("lost", task_id)
            assert str(victim) in reason and "died" in reason
            # capacity restored: a replacement worker serves new tasks
            deadline = time.monotonic() + 10
            while len(pool.pids()) < 2:
                assert time.monotonic() < deadline, "no respawn"
                time.sleep(0.02)
            pool.submit(echo_task, 5)
            kind, _tid, payload = pool.next_event(timeout=30)
            assert kind == "done" and payload["value"] == 50
            assert payload["pid"] != victim

    def test_completed_just_before_crash_is_not_lost(self):
        # a worker that finishes its task and then dies must still
        # deliver the done event, not a bogus lost
        with WorkerPool(workers=1) as pool:
            pool.submit(echo_task, 3)
            time.sleep(0.3)  # let the worker finish and flush the event
            for p in list(pool._procs):
                os.kill(p.pid, signal.SIGKILL)
            kind, _tid, payload = pool.next_event(timeout=30)
        assert kind == "done"
        assert payload["value"] == 30

    def test_runner_on_pool_retries_lost_trial_once(self, tmp_path):
        pidfile = tmp_path / "pid"
        specs = [
            TrialSpec("pool-test", {"scratch": str(tmp_path)}, seed=0),
            TrialSpec("pool-test", {"scratch": None}, seed=1),
        ]
        result = {}
        t = threading.Thread(
            target=lambda: result.update(
                rows=ParallelRunner(workers=2).map(flaky_trial, specs)
            )
        )
        t.start()
        deadline = time.monotonic() + 30
        while not pidfile.exists():
            assert time.monotonic() < deadline, "trial never started"
            time.sleep(0.02)
        os.kill(int(pidfile.read_text()), signal.SIGKILL)
        t.join(timeout=60)
        assert not t.is_alive(), "runner hung after worker death"
        assert result["rows"] == [{"metric": 0.0}, {"metric": 1.0}]


def flaky_trial(spec: TrialSpec):
    """Stall on first execution (after announcing the pid), fast on retry.

    A spec without a scratch directory never stalls.
    """
    from pathlib import Path

    if spec.config["scratch"] is None:
        return {"metric": float(spec.seed)}
    scratch = Path(spec.config["scratch"])
    marker = scratch / "ran"
    if not marker.exists():
        marker.write_text(str(os.getpid()))
        (scratch / "pid").write_text(str(os.getpid()))
        time.sleep(60)
    return {"metric": float(spec.seed)}
