"""Cluster-path latency benches: submit-to-first-row and cache replay.

The multi-host service's two user-visible latencies, measured through
the full topology — HTTP gateway, coordinator sharding across two
in-process :class:`~repro.cluster.ShardAgent` hosts, plan-order
reassembly, cache replication:

* ``cluster_submit_to_first_row`` — cold path: from an HTTP ``submit``
  until the first streamed row lands (gateway dispatch, quota check,
  grid partitioning, one shard round-trip, stream write-back);
* ``cluster_cache_replay`` — warm path: a full submit → stream →
  results loop for a spec whose every trial is already in the
  coordinator's replicated cache (no agent touched).

Both are wall seconds (lower is better) and feed
``BENCH_substrate.json`` via ``bench_substrate_json.py``;
``check_regression.py`` holds them within 2x of the checked-in
baseline.  The timing helpers and the disjoint cold seeds are
``bench_serve.py``'s.  Standalone::

    PYTHONPATH=src python benchmarks/bench_cluster.py
"""

from __future__ import annotations

import statistics
import tempfile

from bench_serve import (
    COLD_ROUNDS,
    COLD_SEEDS,
    REPLAY_ROUNDS,
    TRIALS,
    bench_spec,
    cache_replay,
    submit_to_first_row,
)
from repro.cluster import Coordinator, HttpClusterClient, HttpGateway, ShardAgent
from repro.orchestrate import ResultCache

N_AGENTS = 2


def bench_cluster_entries(workers: int = 2) -> dict[str, dict]:
    """The two cluster-latency entries for ``BENCH_substrate.json``."""
    with tempfile.TemporaryDirectory(prefix="bench-cluster-") as tmp:
        agents = [
            ShardAgent(
                port=0, workers=workers, cache=ResultCache(f"{tmp}/shard-{i}")
            )
            for i in range(N_AGENTS)
        ]
        for agent in agents:
            agent.start()
        try:
            coord = Coordinator(
                port=0,
                agents=[agent.address for agent in agents],
                cache=ResultCache(f"{tmp}/coordinator"),
            )
            with coord, HttpGateway(coord) as gateway:
                client = HttpClusterClient(*gateway.address)
                cold = [
                    submit_to_first_row(client, bench_spec("bench-cluster", s))
                    for s in COLD_SEEDS
                ]
                # seed 0 is computed now; replays must be pure cache hits
                replayed = bench_spec("bench-cluster", 0)
                warm = [
                    cache_replay(client, replayed)
                    for _ in range(REPLAY_ROUNDS)
                ]
        finally:
            for agent in agents:
                agent.stop()
    shared = {
        "trials": TRIALS,
        "workers": workers,
        "agents": N_AGENTS,
        "workload": "stream",
    }
    return {
        "cluster_submit_to_first_row": {
            "metric": "seconds",
            "value": statistics.median(cold),
            "rounds": COLD_ROUNDS,
            **shared,
        },
        "cluster_cache_replay": {
            "metric": "seconds",
            "value": statistics.median(warm),
            "rounds": REPLAY_ROUNDS,
            **shared,
        },
    }


if __name__ == "__main__":
    for name, entry in sorted(bench_cluster_entries().items()):
        print(f"{name}: {entry['value']:.4f} s")
