"""Dynamic membership: states, probing, revival, epochs, and the ops.

The resilience tentpole's first leg: agents join and leave a *running*
coordinator, a background prober walks them through
``alive → suspect → dead`` on missed pings and revives them on a
successful re-probe, and every transition bumps the membership epoch
the sharding loop re-plans on.  The acceptance bar pinned here: an
agent that dies and is restarted is re-admitted by the prober and
receives work **without a coordinator restart**.
"""

import re
import time

import pytest

from repro.__main__ import main
from repro.cluster import (
    AGENT_STATES,
    HttpClusterClient,
    HttpGateway,
    Membership,
    RetryPolicy,
    ShardAgent,
)
from repro.errors import ServeError
from repro.orchestrate import ResultCache
from repro.serve import ServerClient

from tests.cluster.test_coordinator_e2e import cluster_spec, make_coordinator

#: fail fast against dead sockets: probes are single-shot anyway
FAST = RetryPolicy(
    max_attempts=1, base_backoff_s=0.01, op_timeout_s=5.0,
    connect_timeout_s=1.0,
)


def wait_until(predicate, timeout=10.0, step=0.02):
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        if predicate():
            return True
        time.sleep(step)
    return predicate()


class TestStates:
    def test_state_catalogue(self):
        assert AGENT_STATES == ("alive", "suspect", "dead", "left")

    def test_describe_carries_the_lifecycle_fields(self):
        membership = Membership(agents=[("127.0.0.1", 9)], policy=FAST)
        desc = membership.handles()[0].describe()
        for field in ("host", "port", "state", "alive", "misses",
                      "revivals", "reason"):
            assert field in desc


class TestProbing:
    def test_misses_walk_alive_suspect_dead_and_success_revives(
        self, tmp_path
    ):
        agent = ShardAgent(
            port=0, workers=1, cache=ResultCache(tmp_path / "a")
        )
        agent.start()
        membership = Membership(
            agents=[agent.address], policy=FAST,
            suspect_after=1, dead_after=3,
        )
        (handle,) = membership.handles()
        try:
            assert membership.probe_once() == 0  # healthy: no change
            assert handle.state == "alive"

            host, port = agent.address
            agent.stop()
            epoch0 = membership.epoch
            membership.probe_once()
            assert handle.state == "suspect"
            assert membership.epoch > epoch0  # transition bumped it
            assert membership.live() == []    # suspects are not scheduled
            membership.probe_once()
            assert handle.state == "suspect"  # 2 misses: still suspect
            membership.probe_once()
            assert handle.state == "dead"     # 3rd miss crosses dead_after

            # a restarted agent on the same address is revived in place
            agent2 = ShardAgent(
                host=host, port=port, workers=1,
                cache=ResultCache(tmp_path / "a2"),
            )
            agent2.start()
            try:
                membership.probe_once()
                assert handle.state == "alive"
                assert handle.misses == 0
                assert handle.revivals == 1
                assert membership.live() == [handle]
            finally:
                agent2.stop()
        finally:
            membership.stop()

    def test_left_agents_are_never_probed_back(self, tmp_path):
        agent = ShardAgent(
            port=0, workers=1, cache=ResultCache(tmp_path / "a")
        )
        agent.start()
        try:
            membership = Membership(agents=[agent.address], policy=FAST)
            handle = membership.leave(*agent.address)
            assert handle.state == "left"
            membership.probe_once()  # the agent is up and answering
            assert handle.state == "left"
            assert membership.live() == []
        finally:
            agent.stop()

    def test_background_prober_detects_death_and_revival(self, tmp_path):
        agent = ShardAgent(
            port=0, workers=1, cache=ResultCache(tmp_path / "a")
        )
        agent.start()
        host, port = agent.address
        membership = Membership(
            agents=[(host, port)], policy=FAST,
            probe_interval_s=0.05, suspect_after=1, dead_after=2,
        )
        (handle,) = membership.handles()
        membership.start()
        try:
            agent.stop()
            assert wait_until(lambda: handle.state == "dead")
            agent2 = ShardAgent(
                host=host, port=port, workers=1,
                cache=ResultCache(tmp_path / "a2"),
            )
            agent2.start()
            try:
                assert wait_until(lambda: handle.state == "alive")
                assert handle.revivals == 1
            finally:
                agent2.stop()
        finally:
            membership.stop()

    def test_leave_unknown_agent_is_structured(self):
        membership = Membership(policy=FAST)
        with pytest.raises(ServeError) as exc:
            membership.leave("127.0.0.1", 9999)
        assert exc.value.code == "bad_request"

    def test_threshold_validation(self):
        with pytest.raises(ValueError):
            Membership(suspect_after=0)
        with pytest.raises(ValueError):
            Membership(suspect_after=3, dead_after=2)


class TestMembershipOps:
    def test_join_leave_status_over_the_socket_protocol(self, tmp_path):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        try:
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                with ServerClient(*coord.address) as client:
                    status = client.agents_status()
                    assert len(status["agents"]) == 1
                    epoch0 = status["epoch"]

                    joined = client.agents_join(*b.address)
                    assert joined["agent"]["state"] == "alive"
                    assert joined["epoch"] > epoch0

                    left = client.agents_leave(*b.address)
                    assert left["agent"]["state"] == "left"

                    status = client.agents_status()
                    states = {
                        (s["host"], s["port"]): s["state"]
                        for s in status["agents"]
                    }
                    assert states[(b.address[0], b.address[1])] == "left"
        finally:
            a.stop()
            b.stop()

    def test_join_dead_address_fails_structured(self, tmp_path):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        a.start()
        try:
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                with ServerClient(*coord.address) as client:
                    with pytest.raises(ServeError) as exc:
                        client.request(
                            "agents_join", host="127.0.0.1", port=1
                        )
                    assert exc.value.code == "connect_failed"
                    # the failed join left no membership residue
                    assert len(client.request("agents_status")["agents"]) == 1
        finally:
            a.stop()

    def test_join_leave_status_over_http(self, tmp_path):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        try:
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                with HttpGateway(coord, port=0) as gw:
                    http = HttpClusterClient(*gw.address)
                    assert len(http.agents_status()["agents"]) == 1
                    joined = http.agents_join(*b.address)
                    assert joined["agent"]["state"] == "alive"
                    left = http.agents_leave(*b.address)
                    assert left["agent"]["state"] == "left"
                    assert len(http.agents_status()["agents"]) == 2
        finally:
            a.stop()
            b.stop()

    def test_cluster_agents_cli_joins_leaves_and_lists(
        self, tmp_path, capsys
    ):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        agent = "{}:{}".format(*b.address)
        try:
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                cli = ["cluster", "agents", "--coordinator",
                       "{}:{}".format(*coord.address)]
                assert main(cli + ["--join", agent]) == 0
                assert main(cli + ["--leave", agent]) == 0
                assert main(cli) == 0
        finally:
            a.stop()
            b.stop()
        out = capsys.readouterr().out
        assert f"joined {agent} (state=alive, epoch=1)" in out
        assert f"left {agent} (state=left, epoch=2)" in out
        assert "membership epoch 2" in out
        assert re.search(rf"^  {agent}\s+left ", out, re.M)

    def test_bad_agent_addr_params_are_rejected(self, tmp_path):
        a = ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path / "a"))
        a.start()
        try:
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                with ServerClient(*coord.address) as client:
                    for params in (
                        {},
                        {"host": "x"},
                        {"host": "", "port": 80},
                        {"host": "x", "port": "80"},
                        {"host": "x", "port": 0},
                    ):
                        with pytest.raises(ServeError) as exc:
                            client.request("agents_join", **params)
                        assert exc.value.code in (
                            "bad_request", "connect_failed"
                        )
        finally:
            a.stop()


class TestMidJobMembership:
    def test_joining_agent_receives_work_mid_job(self, tmp_path):
        """A join lands capacity on a *running* job via epoch re-plan."""
        a = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        try:
            spec = cluster_spec(name="mid-join", trials=6, seed=61)
            with make_coordinator([a], tmp_path, policy=FAST) as coord:
                with ServerClient(*coord.address) as client:
                    ack = client.submit(spec)
                    coord.register(*b.address)  # join while job runs
                    job = coord.queue.get(ack["job_id"])
                    assert job.wait_terminal(timeout=120) == "done"
                    rows = client.results(ack["job_id"])["rows"]
            # every index landed exactly once; the re-plan may have
            # dispatched an in-flight index to both agents (the cache
            # dedupes at landing), so execution counts only bound below
            assert [r["index"] for r in rows] == list(range(12))
            total = (
                a.scheduler.trials_executed + b.scheduler.trials_executed
            )
            assert total >= 12
        finally:
            a.stop()
            b.stop()

    def test_prober_revived_agent_receives_work_without_restart(
        self, tmp_path
    ):
        """The acceptance criterion: die → restart → probed back → works."""
        a = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "a"))
        b = ShardAgent(port=0, workers=2, cache=ResultCache(tmp_path / "b"))
        a.start()
        b.start()
        bhost, bport = b.address
        try:
            with make_coordinator(
                [a, b], tmp_path, policy=FAST,
                probe_interval_s=0.05, suspect_after=1, dead_after=1,
            ) as coord:
                handle = coord.membership.get(bhost, bport)
                # kill B; the prober must notice without any dispatch
                b.stop()
                assert wait_until(lambda: handle.state == "dead")

                # restart B on the same port; the prober re-admits it
                b2 = ShardAgent(
                    host=bhost, port=bport, workers=2,
                    cache=ResultCache(tmp_path / "b2"),
                )
                b2.start()
                try:
                    assert wait_until(lambda: handle.state == "alive")
                    assert handle.revivals >= 1

                    # and it receives work: no coordinator restart
                    with ServerClient(*coord.address) as client:
                        outcome = client.run(
                            cluster_spec(name="revived", seed=62)
                        )
                    assert outcome.state == "done", outcome.error
                    assert b2.scheduler.trials_executed > 0
                finally:
                    b2.stop()
        finally:
            a.stop()
