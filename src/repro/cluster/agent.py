"""The shard agent: one host's worker in a profiling cluster.

A :class:`ShardAgent` *is* a
:class:`~repro.serve.ProfilingServer` — same worker pool, same fair
scheduler, same cache, same socket protocol — extended with exactly
what cluster membership requires:

* it always owns a :class:`~repro.orchestrate.ResultCache` (created in
  a private temporary directory when none is given), because cache
  replication is what makes cluster reruns pure replays;
* two extra protocol ops, ``cache_export`` / ``cache_import``, moving
  raw ``.pkl`` entry bytes for :class:`~repro.cluster.CacheReplicator`;
* a ``ping`` that identifies its role and reports cumulative cache
  counters (``cache_hits`` et al.), which is how the CI cluster-smoke
  job proves a replicated rerun touched no worker.

The coordinator drives agents purely through the public protocol —
``submit`` with ``trial_indices`` for its shard of a grid, ``stream``
to collect rows — so an agent is equally usable standalone: any
:class:`~repro.serve.ServerClient` pointed at it sees a normal
profiling server that happens to answer two extra ops.
"""

from __future__ import annotations

import tempfile
from typing import Any

from repro.errors import ServeError
from repro.machine.spec import MachineSpec
from repro.orchestrate import ResultCache
from repro.serve import protocol
from repro.serve.server import ProfilingServer
from repro.cluster import replicate


class ShardAgent(ProfilingServer):
    """A cache-replicating profiling server for cluster membership."""

    OPS: tuple[str, ...] = protocol.OPS + ("cache_export", "cache_import")

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache: ResultCache | None = None,
        machine: MachineSpec | None = None,
        queue_limit: int = 16,
        max_retries: int = 1,
    ) -> None:
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if cache is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-shard-")
            cache = ResultCache(self._tmpdir.name)
        super().__init__(
            host=host,
            port=port,
            workers=workers,
            cache=cache,
            machine=machine,
            queue_limit=queue_limit,
            max_retries=max_retries,
        )

    def _stop_components(self) -> None:
        super()._stop_components()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- replication ops ---------------------------------------------------

    @staticmethod
    def _require_key(params: dict[str, Any]) -> str:
        key = params.get("key")
        if not isinstance(key, str) or not key:
            raise ServeError("request needs a string cache key")
        return key

    def _op_cache_export(self, params: dict[str, Any]) -> dict[str, Any]:
        key = self._require_key(params)
        try:
            pkl = self.cache.export_entry(key)
        except KeyError:
            raise ServeError(
                f"cache entry {key!r} not held by this agent", key=key
            ) from None
        return protocol.ok_response(key=key, **replicate.encode_entry(pkl))

    def _op_cache_import(self, params: dict[str, Any]) -> dict[str, Any]:
        key = self._require_key(params)
        if self.cache.contains(key):
            # idempotent fast path: identical bytes are already here
            return protocol.ok_response(key=key, imported=False)
        self.cache.import_entry(key, replicate.decode_entry(params))
        return protocol.ok_response(key=key, imported=True)

    # -- identity ----------------------------------------------------------

    def _op_ping(self, params: dict[str, Any]) -> dict[str, Any]:
        info = super()._op_ping(params)
        info["role"] = "shard-agent"
        # cumulative cache counters (stats.json totals plus the not-yet
        # flushed session tail) under cache_* names: what the cluster
        # smoke asserts on to prove a rerun was a pure cache replay
        totals = self.cache.persistent_stats()
        for k, v in self.cache.stats.as_dict().items():
            totals[k] += v
        info.update({f"cache_{k}": v for k, v in totals.items()})
        return info
