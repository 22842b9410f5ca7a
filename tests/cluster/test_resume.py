"""Crash-recovery resume: the journal replay path, end to end.

The acceptance bar of the resilience tentpole: SIGKILL the
*coordinator* mid-job, restart it with ``--resume`` on the same cache
directory and journal, and the job completes under its original id
with **zero recomputation** of journaled-as-landed indices and a
report byte-identical to a single-host :meth:`Session.run`.  The
subprocess test does exactly that; the in-process tests cover the
replay rules (terminal restores, cache fast path, unplannable specs).
"""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.cluster import (
    Coordinator,
    JobJournal,
    partition_indices,
    read_journal,
    recover,
)
from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.serve import ServerClient

from tests.cluster.test_agent_kill import start_agent
from tests.cluster.test_coordinator_e2e import (  # noqa: F401 - fixture
    cluster_spec,
    make_coordinator,
    two_agents,
)

SRC = Path(__file__).resolve().parents[2] / "src"


def start_coordinator(agent_ports, cache_dir, journal, resume=False):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, "-m", "repro", "cluster", "coordinator",
        "--port", "0",
        "--agents", ",".join(f"127.0.0.1:{p}" for p in agent_ports),
        "--cache-dir", str(cache_dir),
        "--journal", str(journal),
    ]
    if resume:
        cmd.append("--resume")
    proc = subprocess.Popen(
        cmd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
        start_new_session=True,
    )
    deadline = time.monotonic() + 30
    while time.monotonic() < deadline:
        line = proc.stdout.readline()
        match = re.search(r"coordinator on 127\.0\.0\.1:(\d+)", line or "")
        if match:
            return proc, int(match.group(1)), line
        if proc.poll() is not None:
            break
    proc.kill()
    raise AssertionError("coordinator process never became ready")


def kill_group(proc, sig=signal.SIGKILL):
    try:
        os.killpg(proc.pid, sig)
    except ProcessLookupError:
        pass


def drop_job_state_lines(journal_path):
    """Rewrite a journal as if the crash beat the terminal record."""
    kept = []
    for line in Path(journal_path).read_bytes().splitlines():
        if json.loads(line)["rec"]["type"] != "job_state":
            kept.append(line)
    Path(journal_path).write_bytes(b"\n".join(kept) + b"\n")


class TestSigkillResume:
    def test_sigkill_coordinator_mid_job_then_resume_completes(
        self, tmp_path
    ):
        spec = cluster_spec(name="resume-kill", trials=3, seed=71)
        # the job is held open, not raced: agent a is stopped before the
        # submit, so its shard cannot land and the coordinator is killed
        # mid-job however fast agent b's shard finishes.  Shards follow
        # the cache keys over the agents in --agents order (a, b).
        keys = [
            cache_key(t.experiment, t.config, t.seed)
            for t in Session().plan(spec)
        ]
        shards = partition_indices(keys, list(range(len(keys))), 2)
        assert all(shards), f"both agents need work to hold one: {shards}"
        agent_a, port_a = start_agent(tmp_path / "agent-a")
        agent_b, port_b = start_agent(tmp_path / "agent-b")
        coord = coord2 = None
        held = False
        try:
            journal = tmp_path / "wal.ndjson"
            coord, cport, _ = start_coordinator(
                [port_a, port_b], tmp_path / "coord", journal
            )
            kill_group(agent_a, signal.SIGSTOP)
            held = True
            with ServerClient("127.0.0.1", cport) as client:
                ack = client.submit(spec)
                job_id = ack["job_id"]
                assert ack["trials"] == 6
                # wait for agent b's journaled landing, then murder the
                # coordinator with agent a's shard still in flight
                deadline = time.monotonic() + 90
                while time.monotonic() < deadline:
                    landed = recover(read_journal(journal)[0])
                    if landed and landed[job_id].landed:
                        break
                    time.sleep(0.05)
                else:
                    raise AssertionError("no landing ever journaled")
            kill_group(coord)
            coord.wait(timeout=10)
            kill_group(agent_a, signal.SIGCONT)
            held = False

            records = read_journal(journal)[0]
            pre = recover(records)[job_id]
            assert not pre.terminal  # it really died mid-job
            assigned = {
                r["agent"]: r["indices"]
                for r in records
                if r["type"] == "shard_assigned" and r["job_id"] == job_id
            }
            assert assigned[f"127.0.0.1:{port_a}"] == shards[0]
            assert pre.landed <= set(shards[1])
            executed_before = {}
            for port in (port_a, port_b):
                with ServerClient("127.0.0.1", port) as agent:
                    executed_before[port] = agent.ping()["trials_executed"]

            coord2, cport2, banner = start_coordinator(
                [port_a, port_b], tmp_path / "coord", journal, resume=True
            )
            assert "resumed_jobs=1" in banner
            with ServerClient("127.0.0.1", cport2) as client:
                # the job survives under its original id
                deadline = time.monotonic() + 120
                while time.monotonic() < deadline:
                    snap = client.status(job_id)
                    if snap["state"] in ("done", "partial", "failed"):
                        break
                    time.sleep(0.1)
                assert snap["state"] == "done", snap
                outcome = client.results(job_id)

            # zero recomputation: across both coordinator lives every
            # trial executed exactly once somewhere — the resumed boot
            # re-dispatched nothing the journal had already landed
            executed = 0
            for port in (port_a, port_b):
                with ServerClient("127.0.0.1", port) as agent:
                    executed += agent.ping()["trials_executed"]
            assert executed == 6
            for port in (port_a, port_b):
                with ServerClient("127.0.0.1", port) as agent:
                    after = agent.ping()["trials_executed"]
                    # journaled-as-landed indices never re-executed:
                    # each agent only ever grew by the job's remainder
                    assert after - executed_before[port] <= 6 - len(pre.landed)

            # byte parity with a single-host run of the same spec
            session = Session(cache=ResultCache(tmp_path / "single"))
            want = session.run(spec).to_dict()
            assert outcome["report"]["results"] == want["results"]
            assert outcome["report"]["provenance"] == want["provenance"]
            assert outcome["report"]["spec"] == want["spec"]

            # the journal tells the whole story, including the resume
            rec = recover(read_journal(journal)[0])[job_id]
            assert rec.resumes == 1
            assert rec.state == "done"
            assert rec.landed == set(range(6))
        finally:
            if held:
                kill_group(agent_a, signal.SIGCONT)
            for proc in (coord, coord2, agent_a, agent_b):
                if proc is not None:
                    kill_group(proc, signal.SIGTERM)
            for proc in (coord, coord2, agent_a, agent_b):
                if proc is not None:
                    try:
                        proc.wait(timeout=10)
                    except subprocess.TimeoutExpired:
                        kill_group(proc)


class TestResumeRules:
    def test_done_job_replays_from_cache_without_agent_work(
        self, tmp_path, two_agents
    ):
        spec = cluster_spec(name="resume-done", seed=72)
        journal = tmp_path / "wal.ndjson"
        with make_coordinator(
            two_agents, tmp_path, journal=journal
        ) as coord:
            with ServerClient(*coord.address) as client:
                outcome = client.run(spec)
            assert outcome.state == "done"
            job_id = outcome.job_id
        executed = [a.scheduler.trials_executed for a in two_agents]

        # crash just before the terminal record: the journal holds the
        # admission and every landing, but no job_state
        drop_job_state_lines(journal)

        coord2 = Coordinator(
            port=0,
            agents=[a.address for a in two_agents],
            cache=ResultCache(tmp_path / "coord"),  # same cache dir
            journal=journal,
            resume=True,
        )
        with coord2:
            assert coord2.resumed_jobs == 1
            job = coord2.queue.get(job_id)  # original id, not a new one
            assert job.wait_terminal(timeout=60) == "done"
            with ServerClient(*coord2.address) as client:
                rows = client.results(job_id)["rows"]
            assert [r["index"] for r in rows] == list(range(4))
        # the cache fast path landed everything: no agent executed
        # (or was even asked for) a single extra trial
        assert [a.scheduler.trials_executed for a in two_agents] == executed

    def test_failed_and_cancelled_jobs_are_restored_not_retried(
        self, tmp_path
    ):
        spec = cluster_spec(name="resume-terminal", seed=73)
        journal_path = tmp_path / "wal.ndjson"
        with JobJournal(journal_path) as journal:
            journal.append(
                "job_admitted", sync=True, job_id="job-failed",
                spec=spec.to_dict(), tenant="default", priority=0, trials=4,
            )
            journal.append(
                "job_state", sync=True, job_id="job-failed",
                state="failed", error="agents exploded", lost={},
            )
            journal.append(
                "job_admitted", sync=True, job_id="job-gone",
                spec=spec.to_dict(), tenant="default", priority=0, trials=4,
            )
            journal.append(
                "job_state", sync=True, job_id="job-gone",
                state="cancelled", error=None, lost={},
            )
        with Coordinator(
            port=0, agents=[], cache=ResultCache(tmp_path / "coord"),
            journal=journal_path, resume=True,
        ) as coord:
            assert coord.resumed_jobs == 0  # nothing re-dispatched
            failed = coord.queue.get("job-failed")
            assert failed.state == "failed"
            assert failed.error == "agents exploded"
            assert coord.queue.get("job-gone").state == "cancelled"

    def test_unplannable_journaled_spec_is_skipped(self, tmp_path):
        journal_path = tmp_path / "wal.ndjson"
        with JobJournal(journal_path) as journal:
            journal.append(
                "job_admitted", sync=True, job_id="job-bad",
                spec={"name": "bad", "workloads": [{"workload": "no-such"}]},
                tenant="default", priority=0, trials=1,
            )
        with Coordinator(
            port=0, agents=[], cache=ResultCache(tmp_path / "coord"),
            journal=journal_path, resume=True,
        ) as coord:
            assert coord.resumed_jobs == 0
            from repro.errors import ServeError
            with pytest.raises(ServeError):
                coord.queue.get("job-bad")
        records, _ = read_journal(journal_path)
        skip = [r for r in records if r["type"] == "job_resumed"]
        assert len(skip) == 1 and skip[0]["ok"] is False

    def test_resume_without_journal_is_rejected_by_the_cli(self, capsys):
        from repro.__main__ import main

        code = main([
            "cluster", "coordinator",
            "--agents", "127.0.0.1:1", "--resume",
        ])
        assert code == 2
        assert "--resume needs --journal" in capsys.readouterr().err
