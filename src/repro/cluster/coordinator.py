"""The cluster coordinator: one front door over many shard agents.

A :class:`Coordinator` speaks the exact same client-facing protocol as
a single-host :class:`~repro.serve.ProfilingServer` — same ops, same
payload shapes, same streaming semantics — but behind ``submit`` it
owns no worker pool at all.  Instead it:

1. **Plans** the full trial grid locally (the same
   :meth:`~repro.scenarios.Session.plan` every other runner uses, so
   cache keys are identical cluster-wide),
2. **Admits** through per-tenant token-bucket quotas
   (:class:`~repro.cluster.QuotaPolicy`) and the bounded job queue,
   journaling the admission durably when a job journal is attached,
3. **Resolves** coordinator-cache hits immediately (a fully-cached
   spec never touches an agent),
4. **Shards** the remaining indices across live agents by cache key
   (:func:`~repro.cluster.partition_indices`) and submits each shard
   as a ``trial_indices`` sub-grid job, streaming rows back and
   landing them under the *global* index,
5. **Re-plans** the pending indices whenever cluster membership
   changes mid-round — the :class:`~repro.cluster.Membership` epoch is
   snapshotted per sharding round, and a join/leave/death aborts the
   round's in-flight shards so the next round spreads the remaining
   work over the *current* live set (a dead agent's share also retries
   this way: bounded rounds, then the job degrades to ``partial`` with
   the loss recorded — never a hang),
6. **Replicates** each freshly-computed cache entry — pulled from the
   shard that computed it, pushed to every other agent — so one
   cluster run leaves every host able to replay the whole spec from
   its own cache, and
7. **Rebuilds** the final report from raw cache objects (not from the
   JSON rows that crossed the wire), which is what makes the rendered
   report *byte-identical* to a single-host
   :meth:`~repro.scenarios.Session.run` of the same spec.

Resilience: an attached :class:`~repro.cluster.JobJournal` records
admissions, shard assignments, per-index landings, and terminal
states; a coordinator restarted with ``resume=True`` replays the
journal, re-admits every non-terminal job under its original id, and
finishes it against the cache — journaled-as-landed indices are cache
hits, so nothing already paid for is recomputed.  All client-side
timeouts, retries, and backoff come from one injected
:class:`~repro.cluster.RetryPolicy`: every agent op, replication pulls
and pushes included, runs on a client built from it.

Determinism: results and the report are assembled positionally in plan
order regardless of which shard answered first; only the row *event*
order (what a ``stream`` client sees) depends on timing, exactly as it
does on a single host with more than one worker.
"""

from __future__ import annotations

import os
import tempfile
import threading
from typing import Any

from repro.errors import ServeError
from repro.machine.spec import MachineSpec
from repro.orchestrate import ResultCache, cache_key
from repro.scenarios.session import Session
from repro.scenarios.spec import ScenarioSpec
from repro.serve import protocol
from repro.serve.policy import DEFAULT_POLICY, RetryPolicy
from repro.serve.queue import Job, JobQueue
from repro.serve.server import ServerBase
from repro.cluster.journal import JobJournal, read_journal, recover
from repro.cluster.membership import AgentHandle, Membership
from repro.cluster.partition import partition_indices
from repro.cluster.quota import QuotaPolicy
from repro.cluster.replicate import CacheReplicator

__all__ = ["AgentHandle", "Coordinator", "DEFAULT_TENANT"]

_MISS = object()

#: default tenant bucket for submits that don't name one
DEFAULT_TENANT = "default"


class Coordinator(ServerBase):
    """Sharded profiling service over registered :class:`ShardAgent`\\ s.

    ``agents`` is a list of ``(host, port)`` addresses; each is
    version-handshaked at :meth:`start`.  ``cache`` is the
    coordinator's own result cache (a private temporary directory when
    omitted) — it is both the admission fast path and the replication
    hub.  ``max_retries`` bounds how many times a failed shard's
    indices are re-sharded onto surviving agents; membership-change
    re-plans are budgeted separately (:attr:`max_replans`).

    ``policy`` governs every outbound client op (timeouts, retries,
    backoff).  ``probe_interval_s`` enables the background health
    prober.  ``journal`` (a path or :class:`JobJournal`) makes the job
    lifecycle durable; ``resume=True`` replays it at :meth:`start`.
    """

    OPS = protocol.OPS + ("agents_join", "agents_leave", "agents_status")

    #: bound on membership-change re-plans per job (vs. flapping agents)
    max_replans = 16

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        agents: list[tuple[str, int]] | None = None,
        cache: ResultCache | None = None,
        machine: MachineSpec | None = None,
        queue_limit: int = 16,
        max_retries: int = 1,
        quota: QuotaPolicy | None = None,
        replicate: bool = True,
        policy: RetryPolicy | None = None,
        probe_interval_s: float | None = None,
        suspect_after: int = 1,
        dead_after: int = 3,
        journal: JobJournal | str | os.PathLike | None = None,
        resume: bool = False,
    ) -> None:
        super().__init__(host, port)
        self.queue = JobQueue(limit=queue_limit)
        self.session = Session(machine=machine)
        self._tmpdir: tempfile.TemporaryDirectory | None = None
        if cache is None:
            self._tmpdir = tempfile.TemporaryDirectory(prefix="repro-coord-")
            cache = ResultCache(self._tmpdir.name)
        self.cache = cache
        self.machine = machine
        self.max_retries = max_retries
        self.quota = quota
        #: the one retry policy every outbound op obeys
        self.policy = policy or DEFAULT_POLICY
        #: push the full entry set to every agent after a job completes
        #: (the pull into the coordinator's own cache always happens —
        #: the final report is rebuilt from it)
        self.replicate = replicate
        self.replicator = CacheReplicator(cache)
        self.membership = Membership(
            agents=agents,
            policy=self.policy,
            probe_interval_s=probe_interval_s,
            suspect_after=suspect_after,
            dead_after=dead_after,
        )
        if journal is not None and not isinstance(journal, JobJournal):
            journal = JobJournal(journal)
        self.journal = journal
        self._resume = resume
        self.resumed_jobs = 0
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self.trials_executed = 0  # trials agents computed for us
        self.trials_cached = 0    # trials answered from caches (any host)

    # -- membership --------------------------------------------------------

    @property
    def agents(self) -> list[AgentHandle]:
        """Every known agent handle (all states), registration order."""
        return self.membership.handles()

    def register(self, host: str, port: int) -> AgentHandle:
        """Add (and handshake) one agent; returns its handle."""
        return self.membership.add(host, port)

    def live_agents(self) -> list[AgentHandle]:
        return self.membership.live()

    def _op_agents_join(self, params: dict[str, Any]) -> dict[str, Any]:
        """Admit (or revive) an agent at runtime; handshakes it first."""
        host, port = self._agent_addr(params)
        handle = self.membership.add(host, port)
        return protocol.ok_response(
            agent=handle.describe(), epoch=self.membership.epoch
        )

    def _op_agents_leave(self, params: dict[str, Any]) -> dict[str, Any]:
        """Deregister an agent: state ``left``, never auto-revived."""
        host, port = self._agent_addr(params)
        handle = self.membership.leave(host, port)
        return protocol.ok_response(
            agent=handle.describe(), epoch=self.membership.epoch
        )

    def _op_agents_status(self, _params: dict[str, Any]) -> dict[str, Any]:
        """The membership table, epoch, and prober configuration."""
        return protocol.ok_response(
            agents=self.membership.snapshot(),
            epoch=self.membership.epoch,
            probes=self.membership.probes,
            probe_interval_s=self.membership.probe_interval_s,
            suspect_after=self.membership.suspect_after,
            dead_after=self.membership.dead_after,
        )

    @staticmethod
    def _agent_addr(params: dict[str, Any]) -> tuple[str, int]:
        host = params.get("host")
        port = params.get("port")
        if not isinstance(host, str) or not host:
            raise ServeError("agent op needs a host string")
        if not isinstance(port, int) or not (0 < port < 65536):
            raise ServeError("agent op needs a port in 1..65535")
        return host, port

    def _start_components(self) -> None:
        self.membership.handshake_all()
        self.membership.start()
        if self._resume and self.journal is not None:
            self._resume_journal()

    def _stop_components(self) -> None:
        self.membership.stop()
        for t in self._threads:
            t.join(timeout=5.0)
        if self.journal is not None:
            self.journal.close()
        if self._tmpdir is not None:
            self._tmpdir.cleanup()
            self._tmpdir = None

    # -- journaling --------------------------------------------------------

    def _journal_append(self, rtype: str, sync: bool = False, **fields) -> None:
        if self.journal is not None:
            self.journal.append(rtype, sync=sync, **fields)

    def _journal_landings(self, job: Job, indices: list[int]) -> None:
        """Record the indices whose entries reached the coordinator cache."""
        if self.journal is None:
            return
        for idx in indices:
            if self.cache.contains(job.keys[idx]):
                self.journal.append(
                    "row_landed", job_id=job.id, index=idx, key=job.keys[idx]
                )

    def _journal_terminal(self, job: Job) -> None:
        if self.journal is None or not job.is_terminal():
            return
        with job.cond:
            state, error = job.state, job.error
            lost = {str(k): v for k, v in job.lost.items()}
        self.journal.append(
            "job_state", sync=True,
            job_id=job.id, state=state, error=error, lost=lost,
        )

    def _resume_journal(self) -> None:
        """Replay the journal: re-adopt every journaled job on boot.

        Terminal ``failed``/``cancelled`` jobs are restored as-is (a
        spec that failed is not silently retried; a cancellation is
        user intent).  Everything else — in-flight, ``done``,
        ``partial`` — is re-driven through the normal dispatcher: the
        cache fast path lands every journaled (= cached) index without
        recomputation, only genuinely missing trials reach an agent,
        and the report is rebuilt byte-identically from raw cache
        objects.
        """
        assert self.journal is not None
        records, dropped = read_journal(self.journal.path)
        for job_id, rec in recover(records).items():
            try:
                spec = ScenarioSpec.from_dict(rec.spec)
                trial_specs = self.session.plan(spec)
            except Exception as e:
                self._journal_append(
                    "job_resumed", job_id=job_id, ok=False,
                    error=f"unplannable journaled spec: {e}",
                )
                continue
            keys = [
                cache_key(t.experiment, t.config, t.seed) for t in trial_specs
            ]
            job = self.queue.submit(
                spec, trial_specs, keys,
                priority=rec.priority, job_id=job_id, force=True,
            )
            self._journal_append(
                "job_resumed", job_id=job_id, ok=True,
                landed=len(rec.landed), prior_state=rec.state,
            )
            if rec.state in ("failed", "cancelled"):
                with job.cond:
                    job.error = rec.error
                job.set_state(rec.state)
                continue
            self.resumed_jobs += 1
            self._spawn_dispatcher(job)
        if dropped:
            self.journal.sync()  # the torn tail is now truncated history

    # -- admission ---------------------------------------------------------

    def _op_submit(self, params: dict[str, Any]) -> dict[str, Any]:
        if params.get("trial_indices") is not None:
            raise ServeError(
                "a coordinator plans and shards the whole grid itself; "
                "trial_indices is the shard agents' sub-grid primitive"
            )
        spec_dict = params.get("spec")
        if not isinstance(spec_dict, dict):
            raise ServeError("submit needs a spec object")
        spec = ScenarioSpec.from_dict(spec_dict)
        priority = params.get("priority", 0)
        if not isinstance(priority, int):
            raise ServeError("priority must be an integer")
        tenant = params.get("tenant", DEFAULT_TENANT)
        if not isinstance(tenant, str) or not tenant:
            raise ServeError("tenant must be a non-empty string")
        trial_specs = self.session.plan(spec)
        keys = [
            cache_key(t.experiment, t.config, t.seed) for t in trial_specs
        ]
        if self.quota is not None:
            self.quota.admit(tenant, len(trial_specs))
        job = self.queue.submit(spec, trial_specs, keys, priority=priority)
        # synced before the ack: an admission the client saw survives a
        # coordinator crash
        self._journal_append(
            "job_admitted", sync=True,
            job_id=job.id, spec=spec.to_dict(), tenant=tenant,
            priority=priority, trials=job.total,
        )
        self._spawn_dispatcher(job)
        return protocol.ok_response(
            job_id=job.id,
            state=job.state,
            trials=job.total,
            spec_hash=spec.spec_hash(),
            tenant=tenant,
        )

    def _spawn_dispatcher(self, job: Job) -> None:
        worker = threading.Thread(
            target=self._run_job,
            args=(job,),
            name=f"cluster-job-{job.id}",
            daemon=True,
        )
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(worker)
        worker.start()

    # -- the per-job dispatcher --------------------------------------------

    def _run_job(self, job: Job) -> None:
        """Drive one job to a terminal state (runs in its own thread)."""
        try:
            self._shard_and_collect(job)
        except Exception as e:  # a bug must surface as failed, not a hang
            with job.cond:
                job.error = f"coordinator error: {type(e).__name__}: {e}"
            job.set_state("failed")
        finally:
            self._journal_terminal(job)

    def _shard_and_collect(self, job: Job) -> None:
        job.set_state("running")
        if job.is_terminal():  # cancelled before the dispatcher ran
            return
        # coordinator-cache fast path: raw objects land directly
        pending: list[int] = []
        for idx in range(job.total):
            hit = self.cache.get(job.keys[idx], _MISS)
            if hit is _MISS:
                pending.append(idx)
            else:
                with self._lock:
                    self.trials_cached += 1
                job.land_row(idx, hit, cached=True)
                self._journal_append(
                    "row_landed", job_id=job.id, index=idx, key=job.keys[idx]
                )
        with job.cond:
            job.pending = list(pending)

        rounds = 0
        replans = 0
        while pending and not job.is_terminal():
            # epoch first: a change between these two reads surfaces as
            # a mid-round mismatch and re-plans, never goes unseen
            epoch = self.membership.epoch
            agents = self.live_agents()
            if not agents:
                break
            shards = partition_indices(job.keys, pending, len(agents))
            results: list[list[int]] = [[] for _ in agents]
            threads = []
            for ai, (agent, assigned) in enumerate(zip(agents, shards)):
                if not assigned:
                    continue
                self._journal_append(
                    "shard_assigned", job_id=job.id,
                    agent=f"{agent.host}:{agent.port}", indices=assigned,
                )
                t = threading.Thread(
                    target=self._run_shard,
                    args=(job, agent, assigned, results, ai, epoch),
                    name=f"{job.id}-shard-{ai}",
                    daemon=True,
                )
                threads.append(t)
                t.start()
            for t in threads:
                t.join()
            # an index is done only once its entry reached the
            # coordinator cache: a row streamed from an agent that died
            # before the pull must retry, or the final rebuild would
            # hit a replication hole
            landed = {i for chunk in results for i in chunk}
            pending = [
                i
                for i in pending
                if i not in landed or not self.cache.contains(job.keys[i])
            ]
            with job.cond:
                job.pending = list(pending)
            if not pending:
                break
            if self.membership.epoch != epoch and replans < self.max_replans:
                # membership changed mid-round (join, leave, death,
                # probe verdict): re-plan over the current live set
                # without spending a failure retry
                replans += 1
                continue
            rounds += 1
            if rounds > self.max_retries:
                break

        self._finish(job, pending)

    def _run_shard(
        self,
        job: Job,
        agent: AgentHandle,
        indices: list[int],
        results: list[list[int]],
        slot: int,
        epoch: int | None = None,
    ) -> None:
        """Submit one shard sub-grid to one agent and stream it home.

        Landed global indices are recorded in ``results[slot]``; any
        exception marks the agent dead and leaves its unlanded indices
        for the next round — fault handling is by omission, so a crash
        here can only cost retries, never correctness.  A membership
        epoch change mid-stream cancels the remote sub-job and bails
        out early; whatever already landed is pulled home and the rest
        re-plans with the new membership.
        """
        landed = results[slot]
        sub_id = None
        try:
            with agent.client(self.policy) as client:
                ack = client.submit(job.spec, trial_indices=indices)
                sub_id = ack["job_id"]
                for event in client.stream(sub_id):
                    if job.is_terminal():
                        self._cancel_remote(agent, sub_id)
                        return
                    if (
                        epoch is not None
                        and self.membership.epoch != epoch
                    ):
                        self._cancel_remote(agent, sub_id)
                        break  # re-plan; landed entries still pull home
                    if event.get("event") == "row":
                        gidx = indices[event["index"]]
                        job.land_row(gidx, event["row"], event["cached"])
                        landed.append(gidx)
                        with self._lock:
                            if event["cached"]:
                                self.trials_cached += 1
                            else:
                                self.trials_executed += 1
                    elif event.get("event") == "end":
                        # partial/failed sub-job: unlanded indices retry
                        # elsewhere, like any other shard loss
                        break
            # the pull is not optional: the final report is rebuilt
            # from raw coordinator-cache objects, so every computed
            # entry must come home (``replicate`` gates only the
            # peer push; entries the agent never computed are skipped)
            self._pull_shard(agent, job, indices)
            self._journal_landings(job, landed)
        except (ServeError, OSError, ConnectionError, KeyError):
            # fault handling is by omission: the agent is marked dead
            # and this shard's unlanded indices retry on the survivors
            self.membership.mark_dead(agent, reason="shard dispatch failed")

    def _cancel_remote(self, agent: AgentHandle, sub_id: str) -> None:
        """Best-effort cancel of a shard sub-job (cluster job cancelled)."""
        try:
            with agent.client(self.membership.probe_policy) as control:
                control.cancel(sub_id)
        except (ServeError, OSError, ConnectionError):
            pass

    def _pull_shard(
        self, agent: AgentHandle, job: Job, indices: list[int]
    ) -> None:
        """Replicate a finished shard's entries into the coordinator cache."""
        keys = [job.keys[i] for i in indices]
        with agent.client(self.policy) as client:
            self.replicator.pull(client, keys)

    # -- completion --------------------------------------------------------

    def _finish(self, job: Job, unlanded: list[int]) -> None:
        if job.is_terminal():  # cancelled mid-flight
            return
        if unlanded:
            with job.cond:
                for idx in unlanded:
                    job.lost.setdefault(idx, "no live agent could run it")
                job.error = (
                    f"{len(unlanded)} of {job.total} trials lost: "
                    f"{len(self.live_agents())} live agent(s) after retries"
                )
            job.set_state("partial")
            return
        if self.replicate:
            self._push_all(job)
        # parity-critical: rebuild rows from raw cache objects — the
        # streamed rows were JSON-safe renderings, and the report must
        # be byte-identical to a single-host Session.run of the spec
        raw = [self.cache.get(key, _MISS) for key in job.keys]
        missing = [i for i, r in enumerate(raw) if r is _MISS]
        if missing:
            with job.cond:
                job.error = (
                    f"replication hole: {len(missing)} computed entr"
                    f"{'y' if len(missing) == 1 else 'ies'} missing from the "
                    "coordinator cache"
                )
            job.set_state("failed")
            return
        job.report = self.session.build_report(
            job.spec,
            raw,
            execution={
                "agents": len(self.agents),
                "live_agents": len(self.live_agents()),
                "total_trials": job.total,
                "cache_hits": job.cached,
                "executed": job.total - job.cached,
                "cached": True,
                "replicated": self.replicate,
            },
        )
        job.set_state("done")
        self.cache.flush_stats()

    def _push_all(self, job: Job) -> None:
        """Publish the job's full entry set to every live agent."""
        for agent in self.live_agents():
            try:
                with agent.client(self.policy) as client:
                    self.replicator.push(client, job.keys)
            except (ServeError, OSError, ConnectionError):
                # replication never fails a done job
                self.membership.mark_dead(agent, reason="push failed")

    # -- deterministic results ---------------------------------------------

    def _op_results(self, params: dict[str, Any]) -> dict[str, Any]:
        """Results with rows reassembled in plan order.

        Which shard answers first is timing; the *results* a client
        fetches after the fact must not be.  Sorting by global trial
        index makes the results payload identical between a first
        cluster run, a replayed run, and a single-host run of the same
        spec (streamed event order remains landing order, exactly as on
        a single host with several workers).
        """
        response = super()._op_results(params)
        if response.get("ok"):
            response["rows"] = sorted(
                response["rows"], key=lambda r: r["index"]
            )
        return response

    # -- liveness ----------------------------------------------------------

    def _op_ping(self, _params: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_response(
            protocol=protocol.PROTOCOL_VERSION,
            role="coordinator",
            agents=self.membership.snapshot(),
            membership_epoch=self.membership.epoch,
            probe_interval_s=self.membership.probe_interval_s,
            active_jobs=self.queue.active_count(),
            queue_limit=self.queue.limit,
            trials_executed=self.trials_executed,
            trials_cached=self.trials_cached,
            resumed_jobs=self.resumed_jobs,
            journal=(
                None if self.journal is None else str(self.journal.path)
            ),
            cached=True,
            replicate=self.replicate,
            quota=(
                None if self.quota is None
                else {
                    "capacity": self.quota.capacity,
                    "refill_per_s": self.quota.refill_per_s,
                    "tenants": self.quota.snapshot(),
                }
            ),
        )
