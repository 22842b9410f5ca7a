"""Multi-host sharded profiling: agents, a coordinator, HTTP, quotas.

One :class:`~repro.serve.ProfilingServer` scales to one host's cores.
This package scales the *service* across hosts without changing what a
client sees:

:class:`ShardAgent`
    A profiling server (pool + scheduler + cache) that additionally
    answers ``cache_export`` / ``cache_import`` — one agent per host.
:class:`Coordinator`
    The front door: plans each submitted spec's full grid, enforces
    per-tenant quotas, shards the uncached trials across live agents
    by cache key, streams rows home, retries a dead agent's share on
    the survivors (then degrades to ``partial`` — never a hang), and
    rebuilds the final report from raw cache objects so the rendered
    output is byte-identical to a single-host
    :meth:`~repro.scenarios.Session.run`.
:class:`HttpGateway` / :class:`HttpClusterClient`
    An HTTP/JSON envelope over the same dispatch surface — ``POST
    /v1/jobs``, chunked NDJSON streaming — carrying the canonical
    protocol payloads byte-for-byte.
:class:`QuotaPolicy` / :class:`TokenBucket`
    Admission metering in trial tokens per tenant, rejected with
    structured ``quota_exceeded`` errors carrying ``retry_after_s``.
:class:`CacheReplicator` (with :func:`partition_indices`)
    Byte-exact entry movement that makes a cluster rerun a pure cache
    replay on every host.

Start a two-host cluster in-process (tests do exactly this)::

    from repro.cluster import Coordinator, HttpGateway, ShardAgent
    from repro.serve import ServerClient

    with ShardAgent(workers=2) as a, ShardAgent(workers=2) as b:
        coord = Coordinator(agents=[a.address, b.address])
        with coord, HttpGateway(coord) as gw:
            with ServerClient(*coord.address) as client:
                outcome = client.run(my_spec)   # sharded across a and b

From the shell: ``python -m repro cluster agent --port 7124`` on each
host, then ``python -m repro cluster coordinator --agents
host1:7124,host2:7124 --http-port 8123`` (see ``docs/serving.md``).
"""

from repro.cluster.agent import ShardAgent
from repro.cluster.coordinator import Coordinator, DEFAULT_TENANT
from repro.cluster.http import STATUS_BY_CODE, HttpClusterClient, HttpGateway
from repro.cluster.journal import JobJournal, JobRecovery, read_journal, recover
from repro.cluster.membership import AGENT_STATES, AgentHandle, Membership
from repro.cluster.partition import partition_indices, shard_for_key
from repro.cluster.quota import QuotaPolicy, TokenBucket
from repro.cluster.replicate import CacheReplicator, decode_entry, encode_entry
from repro.serve.policy import DEFAULT_POLICY, Deadline, RetryPolicy

__all__ = [
    "AGENT_STATES",
    "AgentHandle",
    "CacheReplicator",
    "Coordinator",
    "DEFAULT_POLICY",
    "DEFAULT_TENANT",
    "Deadline",
    "HttpClusterClient",
    "HttpGateway",
    "JobJournal",
    "JobRecovery",
    "Membership",
    "QuotaPolicy",
    "RetryPolicy",
    "STATUS_BY_CODE",
    "ShardAgent",
    "TokenBucket",
    "decode_entry",
    "encode_entry",
    "partition_indices",
    "read_journal",
    "recover",
    "shard_for_key",
]
