"""Byte-exact cache replication between cluster hosts.

After a sharded job completes, each trial's cache entry exists on
exactly one host — the shard that computed it.  A rerun of the same
spec would then re-shard and hit only ``1/n`` of its trials per agent.
:class:`CacheReplicator` closes that gap: the coordinator *pulls* each
freshly-computed entry from the shard that owns it into its own
cache, then *pushes* the full set to every other agent, so after one
cluster run **every host holds every entry** and a rerun is a pure
cache replay everywhere (the ``cluster_cache_replay`` benchmark and
the CI cluster-smoke job pin this).

Each entry travels as its raw ``.pkl`` bytes —
:meth:`~repro.orchestrate.ResultCache.export_entry` /
:meth:`~repro.orchestrate.ResultCache.import_entry` — base64-wrapped
into one ``cache_export`` / ``cache_import`` protocol line per entry.
Byte-exactness is the point: a replicated ``.pkl`` is
indistinguishable from a locally-computed one, so cache keys and
parity gates behave identically on every host.  One entry per line
keeps each message far under the protocol's 8 MiB line ceiling; a
single entry larger than that cannot be replicated and is reported,
not silently dropped.  Peers that also send a ``cols`` field (the
columnar sidecar older versions kept) are understood: it is ignored.
"""

from __future__ import annotations

import base64

from repro.errors import ClusterError, ServeError
from repro.orchestrate import ResultCache
from repro.serve.client import ServerClient


def encode_entry(pkl: bytes) -> dict:
    """Wire form of one cache entry (base64 over the JSON protocol)."""
    return {"pkl": base64.b64encode(pkl).decode("ascii")}


def decode_entry(payload: dict) -> bytes:
    """Inverse of :func:`encode_entry`; raises on malformed payloads."""
    try:
        return base64.b64decode(payload["pkl"], validate=True)
    except (KeyError, TypeError, ValueError) as e:
        raise ClusterError(f"malformed cache entry payload: {e}") from None


class CacheReplicator:
    """Moves cache entries between a local cache and remote agents.

    Stateless beyond the local :class:`~repro.orchestrate.ResultCache`;
    the coordinator calls :meth:`pull` with the shard that computed a
    set of keys and :meth:`push` with everyone else.  Timeouts and
    retries are the passed client's: each entry is one request under
    its :class:`~repro.serve.RetryPolicy`.
    """

    def __init__(self, cache: ResultCache) -> None:
        self.cache = cache

    # -- pull: remote agent -> local cache ---------------------------------

    def pull(self, client: ServerClient, keys: list[str]) -> int:
        """Fetch ``keys`` the local cache is missing from one agent.

        Returns the number of entries imported.  A key the agent does
        not hold either (a trial lost to a crash) is skipped — the
        job's ``partial`` state already reports it; replication never
        escalates a known loss into a new failure.
        """
        pulled = 0
        for key in keys:
            if self.cache.contains(key):
                continue
            try:
                response = client.request("cache_export", key=key)
            except ServeError as e:
                if e.code == "bad_request":
                    continue  # agent doesn't have it either
                raise
            self.cache.import_entry(key, decode_entry(response))
            pulled += 1
        return pulled

    # -- push: local cache -> remote agents --------------------------------

    def push(self, client: ServerClient, keys: list[str]) -> int:
        """Publish locally-held ``keys`` to one agent; returns sent count.

        Imports are idempotent (atomic overwrite with identical bytes),
        so pushing an entry the agent already holds is harmless — the
        agent answers ``imported=False`` and the coordinator moves on.
        """
        pushed = 0
        for key in keys:
            try:
                pkl = self.cache.export_entry(key)
            except KeyError:
                continue  # lost trial: nothing to publish
            response = client.request(
                "cache_import", key=key, **encode_entry(pkl)
            )
            pushed += 1 if response.get("imported") else 0
        return pushed
