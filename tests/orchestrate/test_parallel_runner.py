"""ParallelRunner: ordering, seeding, cache integration, fallback."""

import multiprocessing as mp
import os
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.errors import ReproError
from repro.orchestrate import (
    ParallelRunner,
    ResultCache,
    TrialSpec,
    WorkerPool,
    default_workers,
    derive_seed,
)
from repro.orchestrate import runner as runner_mod

WORKERS = 3


def echo_trial(spec: TrialSpec) -> dict:
    """Module-level so it pickles across the process-pool boundary."""
    return {"value": spec.config["value"] * 10, "seed": spec.seed,
            "pid": os.getpid()}


def failing_trial(spec: TrialSpec) -> dict:
    if spec.config["value"] == 2:
        raise ValueError("trial 2 exploded")
    return {"ok": spec.config["value"]}


def first_fails_trial(spec: TrialSpec) -> dict:
    """Trial 0 raises after 0.2 s; the others mark their start, then sleep."""
    if spec.config["value"] == 0:
        time.sleep(0.2)
        raise ValueError("trial 0 exploded")
    (Path(spec.config["scratch"]) / f"started-{spec.config['value']}").touch()
    time.sleep(1.5)
    return {"ok": spec.config["value"]}


class SlowPickleError(ValueError):
    """Pickles slowly, so a sibling's report overtakes this error's."""

    def __reduce__(self):
        time.sleep(0.5)
        return (SlowPickleError, self.args)


def slow_error_trial(spec: TrialSpec) -> dict:
    if spec.config["value"] == 0:
        raise SlowPickleError("trial 0 exploded")
    time.sleep(0.1)
    return {"ok": spec.config["value"]}


def ledger_trial(spec: TrialSpec) -> dict:
    """Append one line per execution (``O_APPEND`` keeps lines whole)."""
    fd = os.open(spec.config["ledger"], os.O_WRONLY | os.O_APPEND | os.O_CREAT)
    try:
        os.write(fd, f"{spec.config['value']}\n".encode())
    finally:
        os.close(fd)
    return {"value": spec.config["value"], "pid": os.getpid()}


def big_trial(spec: TrialSpec) -> dict:
    """Large enough to cross the pool through shared memory."""
    return {"data": np.arange(100_000, dtype=np.uint64) + spec.seed}


def open_fds() -> int:
    return len(os.listdir("/proc/self/fd"))


def shm_segments() -> set:
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:
        return set()


def specs(n=6, experiment="runner-test"):
    return [
        TrialSpec(experiment=experiment, config={"value": i}, seed=i % 2)
        for i in range(n)
    ]


class TestSerial:
    def test_results_in_spec_order(self):
        out = ParallelRunner(workers=1).map(echo_trial, specs())
        assert [r["value"] for r in out] == [0, 10, 20, 30, 40, 50]

    def test_serial_runs_in_process(self):
        out = ParallelRunner(workers=1).map(echo_trial, specs(2))
        assert all(r["pid"] == os.getpid() for r in out)

    def test_serial_accepts_lambdas(self):
        # no pickling requirement at workers=1
        out = ParallelRunner(workers=1).map(lambda s: s.seed, specs(3))
        assert out == [0, 1, 0]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="trial 2"):
            ParallelRunner(workers=1).map(failing_trial, specs(4))


class TestParallel:
    def test_results_match_serial(self):
        serial = ParallelRunner(workers=1).map(echo_trial, specs())
        parallel = ParallelRunner(workers=WORKERS).map(echo_trial, specs())
        for s, p in zip(serial, parallel):
            assert {k: s[k] for k in ("value", "seed")} == {
                k: p[k] for k in ("value", "seed")
            }

    def test_seeds_fixed_by_grid_position(self):
        out = ParallelRunner(workers=WORKERS).map(echo_trial, specs())
        assert [r["seed"] for r in out] == [0, 1, 0, 1, 0, 1]

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="trial 2"):
            ParallelRunner(workers=WORKERS).map(failing_trial, specs(4))

    def test_error_cause_is_the_worker_traceback(self):
        with pytest.raises(ValueError, match="trial 2") as info:
            ParallelRunner(workers=WORKERS).map(failing_trial, specs(4))
        assert "in failing_trial" in str(info.value.__cause__)

    def test_failure_stops_the_grid(self, tmp_path):
        grid = [
            TrialSpec("runner-test", {"value": i, "scratch": str(tmp_path)}, 0)
            for i in range(8)
        ]
        t0 = time.monotonic()
        with pytest.raises(ValueError, match="trial 0"):
            ParallelRunner(workers=2).map(first_fails_trial, grid)
        elapsed = time.monotonic() - t0
        # only the sibling already running when trial 0 failed may start
        assert len(list(tmp_path.glob("started-*"))) <= 1
        assert elapsed < 3.0

    def test_trials_skipped_after_a_failure_are_not_cached(self, tmp_path):
        cache = ResultCache(tmp_path)
        grid = specs(8)
        with pytest.raises(SlowPickleError, match="trial 0"):
            ParallelRunner(workers=2, cache=cache).map(slow_error_trial, grid)
        for spec in grid:
            key = cache.key(spec.experiment, spec.config, spec.seed)
            ran = {"ok": spec.config["value"]}
            assert cache.get(key, "miss") in ("miss", ran)

    def test_at_most_workers_trials_outstanding(self, monkeypatch):
        peaks = []

        class PeakPool(WorkerPool):
            def submit(self, fn, arg):
                task_id = super().submit(fn, arg)
                peaks.append(self.outstanding)
                return task_id

        monkeypatch.setattr(runner_mod, "WorkerPool", PeakPool)
        out = ParallelRunner(workers=2).map(echo_trial, specs(8))
        assert [r["value"] for r in out] == [0, 10, 20, 30, 40, 50, 60, 70]
        assert len(peaks) == 8 and max(peaks) == 2

    def test_identical_trials_run_once(self, tmp_path):
        ledger = tmp_path / "ledger"
        grid = [
            TrialSpec("runner-test", {"value": v, "ledger": str(ledger)}, 0)
            for v in (1, 1, 1, 2)
        ]
        out = ParallelRunner(workers=2).map(ledger_trial, grid)
        assert sorted(ledger.read_text().split()) == ["1", "2"]
        assert out[0] is out[1] is out[2]
        assert out[3]["value"] == 2

    def test_single_pending_short_circuits_serial(self):
        out = ParallelRunner(workers=WORKERS).map(echo_trial, specs(1))
        assert out[0]["pid"] == os.getpid()

    def test_report_counts(self):
        runner = ParallelRunner(workers=WORKERS)
        runner.map(echo_trial, specs())
        rep = runner.last_report
        assert (rep.total, rep.cache_hits, rep.executed) == (6, 0, 6)


class TestPoolLifecycle:
    def test_repeated_maps_leak_nothing(self):
        def usage():
            return (open_fds(), threading.active_count(),
                    len(mp.active_children()), shm_segments())

        def grown():
            now = usage()
            return [n > b for n, b in zip(now[:3], before)] + [
                not now[3] <= before[3]
            ]

        runner = ParallelRunner(workers=2)
        grid = specs(4)
        runner.map(big_trial, grid)  # warm-up settles lazily-created fds
        before = usage()
        for _ in range(10):
            rows = runner.map(big_trial, grid)
            assert [int(r["data"][0]) for r in rows] == [0, 1, 0, 1]
        # queue feeder threads exit just after the pool closes
        deadline = time.monotonic() + 5
        while any(grown()) and time.monotonic() < deadline:
            time.sleep(0.05)
        # fds, threads, children, /dev/shm segments
        assert grown() == [False] * 4, (usage(), before)


class TestWorkerCount:
    def test_negative_rejected(self):
        with pytest.raises(ReproError):
            ParallelRunner(workers=-1)

    def test_zero_means_auto(self):
        assert ParallelRunner(workers=0).workers == default_workers()
        assert default_workers() >= 1


class TestCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = ParallelRunner(workers=1, cache=cache)
        a = first.map(echo_trial, specs())
        assert first.last_report.executed == 6

        second = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        b = second.map(echo_trial, specs())
        assert second.last_report.cache_hits == 6
        assert second.last_report.executed == 0
        assert a == b
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 6
        assert totals["misses"] == 6

    def test_parallel_populates_serial_reads(self, tmp_path):
        a = ParallelRunner(workers=WORKERS, cache=ResultCache(tmp_path)).map(
            echo_trial, specs()
        )
        reader = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        b = reader.map(echo_trial, specs())
        assert reader.last_report.cache_hits == 6
        for x, y in zip(a, b):
            assert x == y  # pids included: hits are literal stored values

    def test_all_hits_open_no_pool(self, tmp_path, monkeypatch):
        ParallelRunner(workers=1, cache=ResultCache(tmp_path)).map(
            echo_trial, specs()
        )

        def no_pool(*args, **kwargs):
            raise AssertionError("a fully cached grid opened a pool")

        monkeypatch.setattr(runner_mod, "WorkerPool", no_pool)
        runner = ParallelRunner(workers=WORKERS, cache=ResultCache(tmp_path))
        runner.map(echo_trial, specs())
        assert runner.last_report.cache_hits == 6

    def test_config_change_misses(self, tmp_path):
        cache = ResultCache(tmp_path)
        ParallelRunner(workers=1, cache=cache).map(echo_trial, specs())
        other = [
            TrialSpec("runner-test", {"value": i, "extra": True}, seed=i % 2)
            for i in range(6)
        ]
        runner = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        runner.map(echo_trial, other)
        assert runner.last_report.cache_hits == 0

    def test_experiment_name_partitions_cache(self, tmp_path):
        ParallelRunner(workers=1, cache=ResultCache(tmp_path)).map(
            echo_trial, specs(2, experiment="a")
        )
        runner = ParallelRunner(workers=1, cache=ResultCache(tmp_path))
        runner.map(echo_trial, specs(2, experiment="b"))
        assert runner.last_report.cache_hits == 0


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed("fig8", 1024, 0) == derive_seed("fig8", 1024, 0)

    def test_varies_with_any_part(self):
        base = derive_seed("fig8", 1024, 0)
        assert derive_seed("fig8", 1024, 1) != base
        assert derive_seed("fig8", 2048, 0) != base
        assert derive_seed("fig7", 1024, 0) != base

    def test_fits_32_bits(self):
        assert 0 <= derive_seed("x") < 2**32
