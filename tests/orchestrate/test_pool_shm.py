"""Worker pool result transport: shared-memory shipping and parity.

Workers marshal large columnar results into shared-memory segments and
send only a handle over the event pipe; the parent redeems handles at
the single delivery point in ``next_event``.  These tests pin:

* big results arrive intact through the shm path (and the parent really
  received a handle, not the pickled object),
* a result that crossed through shared memory is pickle-byte-identical
  to the same trial run in-process,
* no shared-memory segments leak — every marshalled result is either
  redeemed or discarded.
"""

import os
import pickle

import numpy as np
import pytest

from repro.orchestrate.pool import WorkerPool
from repro.orchestrate.runner import ParallelRunner, TrialSpec
from repro.substrate import ShmResult
from repro.substrate import shm as shm_mod


def big_result(arg):
    seed = arg.seed if isinstance(arg, TrialSpec) else arg
    return {
        "data": np.arange(100_000, dtype=np.uint64) + seed,
        "seed": seed,
    }


def tiny_result(arg):
    return {"seed": arg}


def shm_segments():
    try:
        return {f for f in os.listdir("/dev/shm") if f.startswith("psm_")}
    except FileNotFoundError:
        return set()


def drain(pool, n):
    events = {}
    for _ in range(n):
        kind, task_id, payload = pool.next_event(timeout=30)
        assert kind == "done", (kind, payload)
        events[task_id] = payload
    return events


class TestPoolTransport:
    def test_big_results_travel_by_handle(self, monkeypatch):
        redeemed = []
        real = shm_mod.unmarshal

        def spy(value):
            if isinstance(value, ShmResult):
                redeemed.append(value)
            return real(value)

        monkeypatch.setattr(shm_mod, "unmarshal", spy)
        before = shm_segments()
        with WorkerPool(workers=2) as pool:
            ids = [pool.submit(big_result, s) for s in range(4)]
            events = drain(pool, 4)
        for seed, task_id in enumerate(ids):
            got = events[task_id]
            assert got["seed"] == seed
            assert np.array_equal(
                got["data"], np.arange(100_000, dtype=np.uint64) + seed
            )
        assert len(redeemed) == 4  # every result crossed as a handle
        assert shm_segments() == before  # ...and was unlinked on redeem

    def test_small_results_take_the_pipe(self, monkeypatch):
        redeemed = []
        real = shm_mod.unmarshal

        def spy(value):
            if isinstance(value, ShmResult):
                redeemed.append(value)
            return real(value)

        monkeypatch.setattr(shm_mod, "unmarshal", spy)
        with WorkerPool(workers=1) as pool:
            pool.submit(tiny_result, 7)
            events = drain(pool, 1)
        assert list(events.values()) == [{"seed": 7}]
        assert redeemed == []

    def test_shm_transport_parity_with_inline(self):
        with WorkerPool(workers=2) as pool:
            ids = [pool.submit(big_result, s) for s in range(3)]
            via_shm = drain(pool, 3)
        for s, task_id in enumerate(ids):
            assert pickle.dumps(via_shm[task_id]) == pickle.dumps(big_result(s))


class TestRunnerTransport:
    def test_runner_pool_round_trips(self):
        before = shm_segments()
        runner = ParallelRunner(workers=2)
        specs = [TrialSpec("exp", {"i": i}, i) for i in range(4)]
        rows = runner.map(big_result, specs)
        assert [r["seed"] for r in rows] == [0, 1, 2, 3]
        for r in rows:
            assert np.array_equal(
                r["data"], np.arange(100_000, dtype=np.uint64) + r["seed"]
            )
        assert shm_segments() == before

    def test_runner_parity_with_inline(self):
        specs = [TrialSpec("exp", {"i": i}, i) for i in range(3)]
        via_shm = ParallelRunner(workers=2).map(big_result, specs)
        inline = ParallelRunner(workers=1).map(big_result, specs)
        # byte-identity is a per-result contract (each result is cached
        # and shipped on its own); object sharing ACROSS results is not
        for a, b in zip(via_shm, inline):
            assert pickle.dumps(a) == pickle.dumps(b)

    def test_serial_path_untouched(self):
        specs = [TrialSpec("exp", {"i": i}, i) for i in range(2)]
        rows = ParallelRunner(workers=1).map(big_result, specs)
        assert [r["seed"] for r in rows] == [0, 1]
