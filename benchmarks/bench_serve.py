"""Serve-path latency benches: submit-to-first-row and cache replay.

The profiling service's two user-visible latencies:

* ``serve_submit_to_first_row`` — cold path: from ``submit`` on an
  open connection until the first streamed row lands (includes queue
  admission, scheduler dispatch, one trial's execution on a pool
  worker, and the stream write-back);
* ``serve_cache_replay`` — warm path: a full submit → stream →
  results loop for a spec whose every trial is already in the shared
  :class:`~repro.orchestrate.ResultCache` (no worker touched).

Both are wall seconds (lower is better) and feed
``BENCH_substrate.json`` via ``bench_substrate_json.py``;
``check_regression.py`` holds them within 2x of the checked-in
baseline.  ``bench_cluster.py`` times the same two latencies over
HTTP with the helper pair below, which takes any
:class:`~repro.serve.ClientBase`.  Standalone::

    PYTHONPATH=src python benchmarks/bench_serve.py
"""

from __future__ import annotations

import statistics
import tempfile
import time

from repro.orchestrate import ResultCache
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ClientBase, ProfilingServer, ServerClient

#: replay measurements (median taken)
REPLAY_ROUNDS = 5
#: cold measurements (median taken); round r submits seed r * TRIALS.
#: Trial t of a spec runs seed ``spec.seed + t``, so these seeds give
#: every round its own trials and no cold round is served from cache.
COLD_ROUNDS = 3
TRIALS = 2
COLD_SEEDS = range(0, COLD_ROUNDS * TRIALS, TRIALS)


def bench_spec(name: str, seed: int) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=TRIALS,
        seed=seed,
    )


def submit_to_first_row(client: ClientBase, spec: ScenarioSpec) -> float:
    """Seconds from submit until the first streamed row arrives."""
    t0 = time.perf_counter()
    ack = client.submit(spec)
    stream = client.stream(ack["job_id"])
    for event in stream:
        if event.get("event") == "row":
            elapsed = time.perf_counter() - t0
            break
    else:
        raise AssertionError("stream ended without a row")
    for _ in stream:  # drain to the end event
        pass
    return elapsed


def cache_replay(client: ClientBase, spec: ScenarioSpec) -> float:
    """Seconds for a full run of an already-cached spec."""
    t0 = time.perf_counter()
    outcome = client.run(spec)
    elapsed = time.perf_counter() - t0
    assert outcome.state == "done"
    assert all(e["cached"] for e in outcome.rows), "replay was not a cache hit"
    return elapsed


def bench_serve_entries(workers: int = 2) -> dict[str, dict]:
    """The two serve-latency entries for ``BENCH_substrate.json``."""
    with tempfile.TemporaryDirectory(prefix="bench-serve-") as tmp:
        with ProfilingServer(
            port=0, workers=workers, cache=ResultCache(tmp)
        ) as srv:
            with ServerClient(*srv.address) as client:
                cold = [
                    submit_to_first_row(client, bench_spec("bench-serve", s))
                    for s in COLD_SEEDS
                ]
                # seed 0 is computed now; replays must be pure cache hits
                replayed = bench_spec("bench-serve", 0)
                warm = [
                    cache_replay(client, replayed)
                    for _ in range(REPLAY_ROUNDS)
                ]
    shared = {"trials": TRIALS, "workers": workers, "workload": "stream"}
    return {
        "serve_submit_to_first_row": {
            "metric": "seconds",
            "value": statistics.median(cold),
            "rounds": COLD_ROUNDS,
            **shared,
        },
        "serve_cache_replay": {
            "metric": "seconds",
            "value": statistics.median(warm),
            "rounds": REPLAY_ROUNDS,
            **shared,
        },
    }


if __name__ == "__main__":
    for name, entry in sorted(bench_serve_entries().items()):
        print(f"{name}: {entry['value']:.4f} s")
