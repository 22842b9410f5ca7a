"""Cluster end-to-end: sharding, byte parity, replication, faults.

The tentpole guarantees:

* a sweep sharded across two agents produces a report (and on-disk
  cache payload bytes) **byte-identical** to a single-host
  :meth:`~repro.scenarios.Session.run` of the same spec,
* after one cluster run every agent holds every entry, so a rerun is a
  pure cache replay on any host (zero trials executed anywhere),
* killing an agent mid-job ends in a retried ``done`` or a clean
  ``partial`` — never a hang — and losing *all* agents degrades to
  ``partial`` with the loss recorded,
* per-tenant quotas reject over-budget submits with a structured
  ``quota_exceeded`` error at admission.
"""

import threading
import time

import pytest

from repro.cluster import (
    Coordinator,
    HttpClusterClient,
    HttpGateway,
    QuotaPolicy,
    ShardAgent,
)
from repro.errors import ServeError
from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.scenarios.session import _json_safe
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ServerClient


def cluster_spec(name="cluster-e2e", trials=2, seed=31, workloads=None):
    names = workloads or ("stream", "pagerank")
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=tuple(
            WorkloadSpec(w, n_threads=2, scale=0.02) for w in names
        ),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


@pytest.fixture()
def two_agents(tmp_path):
    with ShardAgent(
        port=0, workers=2, cache=ResultCache(tmp_path / "agent-a")
    ) as a, ShardAgent(
        port=0, workers=2, cache=ResultCache(tmp_path / "agent-b")
    ) as b:
        yield a, b


def make_coordinator(agents, tmp_path, **kwargs):
    return Coordinator(
        port=0,
        agents=[a.address for a in agents],
        cache=ResultCache(tmp_path / "coord"),
        **kwargs,
    )


def objects(cache_dir):
    return {
        p.relative_to(cache_dir): p.read_bytes()
        for p in (cache_dir / "objects").rglob("*.pkl")
    }


class TestByteParity:
    def test_sharded_run_matches_single_host_session(
        self, two_agents, tmp_path
    ):
        spec = cluster_spec()
        with make_coordinator(two_agents, tmp_path) as coord:
            with ServerClient(*coord.address) as client:
                outcome = client.run(spec)
        assert outcome.state == "done", outcome.error
        assert len(outcome.rows) == 4
        # both agents actually computed a share (keys spread by design)
        shares = [a.scheduler.trials_executed for a in two_agents]
        assert sum(shares) == 4 and all(s > 0 for s in shares)

        session = Session(cache=ResultCache(tmp_path / "single"))
        report = session.run(spec)

        # rows: every streamed row matches the direct trial result
        by_index = {e["index"]: e["row"] for e in outcome.rows}
        for i, t in enumerate(session.plan(spec)):
            direct = session.cache.get(
                cache_key(t.experiment, t.config, t.seed)
            )
            assert by_index[i] == _json_safe(direct)

        # report: identical results/provenance/spec (execution is
        # runtime-dependent by design and excluded from render)
        want = report.to_dict()
        assert outcome.report["results"] == want["results"]
        assert outcome.report["provenance"] == want["provenance"]
        assert outcome.report["spec"] == want["spec"]

        # cache payloads: byte-identical files under every cache dir
        single = objects(tmp_path / "single")
        for cache_dir in ("coord", "agent-a", "agent-b"):
            replica = objects(tmp_path / cache_dir)
            assert set(single) <= set(replica)
            for rel, payload in single.items():
                assert replica[rel] == payload, (cache_dir, rel)

    def test_results_rows_are_plan_ordered(self, two_agents, tmp_path):
        spec = cluster_spec(name="ordered", seed=32)
        with make_coordinator(two_agents, tmp_path) as coord:
            with ServerClient(*coord.address) as client:
                ack = client.submit(spec)
                job = coord.queue.get(ack["job_id"])
                assert job.wait_terminal(timeout=60) == "done"
                rows = client.results(ack["job_id"])["rows"]
        assert [r["index"] for r in rows] == list(range(4))


class TestReplication:
    def test_rerun_is_a_pure_replay_on_every_host(
        self, two_agents, tmp_path
    ):
        spec = cluster_spec(name="replay", seed=33)
        with make_coordinator(two_agents, tmp_path) as coord:
            with ServerClient(*coord.address) as client:
                first = client.run(spec)
                assert first.state == "done"
                executed = [a.scheduler.trials_executed for a in two_agents]
                replay = client.run(spec)
        assert replay.state == "done"
        assert all(e["cached"] for e in replay.rows)
        # the replay came from the coordinator cache: no agent computed
        # (or even served) a single extra trial
        assert [a.scheduler.trials_executed for a in two_agents] == executed
        assert replay.report["results"] == first.report["results"]

    def test_any_single_agent_can_replay_the_whole_spec(
        self, two_agents, tmp_path
    ):
        spec = cluster_spec(name="solo-replay", seed=34)
        with make_coordinator(two_agents, tmp_path) as coord:
            with ServerClient(*coord.address) as client:
                assert client.run(spec).state == "done"
        # after replication, each agent holds the full entry set and
        # serves the spec as a 100% cache hit on its own
        for agent in two_agents:
            with ServerClient(*agent.address) as direct:
                outcome = direct.run(spec)
            assert outcome.state == "done"
            assert all(e["cached"] for e in outcome.rows)

    def test_peer_push_can_be_disabled(self, two_agents, tmp_path):
        spec = cluster_spec(name="no-repl", seed=35)
        with make_coordinator(
            two_agents, tmp_path, replicate=False
        ) as coord:
            with ServerClient(*coord.address) as client:
                outcome = client.run(spec)
        assert outcome.state == "done"
        # the pull into the coordinator still happened (the report
        # needs it), but no agent received the other's entries
        coord_entries = set(objects(tmp_path / "coord"))
        assert len(coord_entries) == 4
        a_entries = set(objects(tmp_path / "agent-a"))
        b_entries = set(objects(tmp_path / "agent-b"))
        assert a_entries | b_entries == coord_entries
        assert not (a_entries & b_entries)


class TestFaults:
    def test_dead_agent_share_retries_on_survivor(self, tmp_path):
        # agent B is registered, then dies before the job: its share
        # must be re-sharded onto A and the job still complete
        a = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        try:
            with make_coordinator([a, b], tmp_path) as coord:
                b.stop()  # dies after registration, before any submit
                with ServerClient(*coord.address) as client:
                    outcome = client.run(cluster_spec(name="lost-b", seed=41))
                assert outcome.state == "done", outcome.error
                assert len(outcome.rows) == 4
                dead = [h for h in coord.agents if not h.alive]
                assert len(dead) == 1
        finally:
            a.stop()

    def test_all_agents_dead_is_clean_partial_not_a_hang(self, tmp_path):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        a.start()
        coord = make_coordinator([a], tmp_path, max_retries=1)
        coord.start()
        try:
            a.stop()
            with ServerClient(*coord.address) as client:
                ack = client.submit(cluster_spec(name="doomed", seed=42))
                job = coord.queue.get(ack["job_id"])
                assert job.wait_terminal(timeout=60) == "partial"
                # partial results stay retrievable (no report, no rows)
                res = client.results(ack["job_id"])
                assert res["state"] == "partial"
                assert res["report"] is None
                snap = client.status(ack["job_id"])
            assert snap["state"] == "partial"
            assert len(snap["lost"]) == 4
            assert "lost" in snap["error"]
        finally:
            coord.stop()

    def test_cancel_mid_job_is_sticky(self, two_agents, tmp_path):
        spec = cluster_spec(name="cancel-race", trials=4, seed=43)
        with make_coordinator(two_agents, tmp_path) as coord:
            with ServerClient(*coord.address) as client:
                ack = client.submit(spec)
                client.cancel(ack["job_id"])
                job = coord.queue.get(ack["job_id"])
                assert job.wait_terminal(timeout=60) == "cancelled"
                time.sleep(0.2)  # any in-flight shard rows settle
                assert job.state == "cancelled"


class TestAdmission:
    @pytest.mark.parametrize("client_cls", [ServerClient, HttpClusterClient])
    def test_trial_indices_are_rejected(self, tmp_path, client_cls):
        # the coordinator shards the whole grid itself: a sub-grid ask
        # is refused, never silently widened to every trial
        spec = cluster_spec(
            name="no-sub-grid", trials=3, seed=41, workloads=("stream",)
        )
        with ShardAgent(
            port=0, workers=1, cache=ResultCache(tmp_path / "agent")
        ) as agent, make_coordinator([agent], tmp_path) as coord:
            with HttpGateway(coord) as gw:
                front = coord if client_cls is ServerClient else gw
                with client_cls(*front.address) as client:
                    with pytest.raises(ServeError) as exc:
                        client.submit(spec, trial_indices=[0])
        assert exc.value.code == "bad_request"
        assert "trial_indices" in str(exc.value)
        assert coord.queue.jobs() == []


class TestQuota:
    def test_over_budget_submit_is_rejected_with_structure(
        self, two_agents, tmp_path
    ):
        quota = QuotaPolicy(capacity=5, refill_per_s=0.001)
        with make_coordinator(two_agents, tmp_path, quota=quota) as coord:
            with ServerClient(*coord.address) as client:
                client.run(cluster_spec(name="q1", seed=51))  # costs 4
                with pytest.raises(ServeError) as exc:
                    client.submit(cluster_spec(name="q2", seed=52),
                                  tenant="default")
        err = exc.value
        assert err.code == "quota_exceeded"
        assert err.details["tenant"] == "default"
        assert err.details["retry_after_s"] > 0

    def test_tenants_meter_independently(self, two_agents, tmp_path):
        quota = QuotaPolicy(capacity=4, refill_per_s=0.001)
        with make_coordinator(two_agents, tmp_path, quota=quota) as coord:
            with ServerClient(*coord.address) as client:
                client.submit(cluster_spec(name="qa", seed=53), tenant="a")
                with pytest.raises(ServeError):
                    client.submit(cluster_spec(name="qa2", seed=54),
                                  tenant="a")
                # tenant b has its own full bucket
                ack = client.submit(cluster_spec(name="qb", seed=55),
                                    tenant="b")
                job = coord.queue.get(ack["job_id"])
                assert job.wait_terminal(timeout=60) == "done"

    def test_ping_reports_quota_and_agents(self, two_agents, tmp_path):
        quota = QuotaPolicy(capacity=9, refill_per_s=2)
        with make_coordinator(two_agents, tmp_path, quota=quota) as coord:
            with ServerClient(*coord.address) as client:
                info = client.ping()
        assert info["role"] == "coordinator"
        assert info["quota"]["capacity"] == 9
        assert len(info["agents"]) == 2
        assert all(a["alive"] for a in info["agents"])


class TestMembership:
    def test_skewed_agent_cannot_join(self, tmp_path):
        # a plain socket server that answers pings with a wrong version
        import socketserver

        from repro.serve import protocol

        class SkewHandler(socketserver.StreamRequestHandler):
            def handle(self):
                msg = protocol.read_message(self.rfile)
                if msg:
                    protocol.write_message(
                        self.wfile, protocol.ok_response(protocol=99)
                    )

        with socketserver.ThreadingTCPServer(
            ("127.0.0.1", 0), SkewHandler
        ) as skew:
            thread = threading.Thread(
                target=skew.serve_forever, daemon=True
            )
            thread.start()
            coord = Coordinator(
                port=0,
                agents=[skew.server_address[:2]],
                cache=ResultCache(tmp_path / "coord"),
            )
            with pytest.raises(ServeError) as exc:
                coord.start()
            assert exc.value.code == "protocol_mismatch"
            coord.stop()
            skew.shutdown()

    def test_dead_address_fails_registration_fast(self, tmp_path):
        coord = Coordinator(
            port=0,
            agents=[("127.0.0.1", 1)],  # nothing listens there
            cache=ResultCache(tmp_path / "coord"),
        )
        with pytest.raises(ServeError) as exc:
            coord.start()
        assert exc.value.code == "connect_failed"
        coord.stop()

    def test_register_adds_a_live_agent(self, tmp_path):
        with ShardAgent(
            port=0, workers=1, cache=ResultCache(tmp_path / "a")
        ) as agent:
            with Coordinator(
                port=0, cache=ResultCache(tmp_path / "coord")
            ) as coord:
                handle = coord.register(*agent.address)
                assert handle.alive
                assert len(coord.live_agents()) == 1
