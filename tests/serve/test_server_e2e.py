"""End-to-end: submit -> stream -> results over a real socket.

Pins the tentpole guarantees of ``repro.serve``:

* streamed rows and the final report are **byte-identical** to what
  :meth:`repro.scenarios.Session.run` produces for the same spec —
  down to the pickled cache payloads on disk,
* resubmitting a computed spec is a full cache hit (no trial executes
  twice),
* a full queue rejects with a structured ``queue_full`` error, and
  protocol misuse gets machine-readable error codes, never a hang.
"""

import json
import socket
import threading
import time

import pytest

from repro.errors import ServeError
from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.scenarios.session import _json_safe
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ProfilingServer, ServerClient, protocol


def e2e_spec(name="serve-e2e", trials=2, seed=11):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


@pytest.fixture(scope="module")
def server_cache_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("serve-cache")


@pytest.fixture(scope="module")
def server(server_cache_dir):
    with ProfilingServer(
        port=0, workers=2, cache=ResultCache(server_cache_dir), queue_limit=4
    ) as srv:
        yield srv


@pytest.fixture()
def client(server):
    with ServerClient(*server.address) as c:
        yield c


class TestSubmitStreamResults:
    def test_full_round_trip_matches_session_run(
        self, server, client, server_cache_dir, tmp_path
    ):
        spec = e2e_spec()
        outcome = client.run(spec)
        assert outcome.state == "done"
        assert len(outcome.rows) == 2
        assert all(not e["cached"] for e in outcome.rows)

        # the direct Session path on its own cache dir
        session_cache = tmp_path / "session-cache"
        session = Session(cache=ResultCache(session_cache))
        report = session.run(spec)

        # streamed rows == Session's raw trial rows (JSON-rendered)
        by_index = {e["index"]: e["row"] for e in outcome.rows}
        direct_rows = [
            _json_safe(
                session.cache.get(cache_key(t.experiment, t.config, t.seed))
            )
            for t in session.plan(spec)
        ]
        assert [by_index[i] for i in range(2)] == direct_rows

        # final report: identical results + provenance (execution is
        # runtime-dependent by design and excluded from render)
        want = report.to_dict()
        got = outcome.report
        assert got["results"] == want["results"]
        assert got["provenance"] == want["provenance"]
        assert got["spec"] == want["spec"]

        # cached payloads are byte-identical files on disk
        def objects(cache_dir):
            return {
                p.relative_to(cache_dir): p.read_bytes()
                for p in (cache_dir / "objects").rglob("*.pkl")
            }

        server_objects = objects(server_cache_dir)
        session_objects = objects(session_cache)
        assert set(session_objects) <= set(server_objects)
        for rel, payload in session_objects.items():
            assert server_objects[rel] == payload

    def test_resubmission_is_a_full_cache_hit(self, client):
        spec = e2e_spec()
        first = client.run(spec)
        replay = client.run(spec)
        assert replay.state == "done"
        assert all(e["cached"] for e in replay.rows)
        assert [e["row"] for e in sorted(replay.rows, key=lambda e: e["index"])] == [
            e["row"] for e in sorted(first.rows, key=lambda e: e["index"])
        ]
        assert replay.report["results"] == first.report["results"]

    def test_stream_replays_rows_already_landed(self, client):
        spec = e2e_spec(name="late-stream", seed=12)
        ack = client.submit(spec)
        job_id = ack["job_id"]
        # wait for completion first, then open the stream: every row
        # must still be delivered (the event log is replayable)
        state = None
        for _ in range(300):
            state = client.status(job_id)["state"]
            if state == "done":
                break
            time.sleep(0.05)
        assert state == "done"
        events = list(client.stream(job_id))
        assert [e["event"] for e in events] == ["row", "row", "end"]
        assert events[-1]["state"] == "done"

    def test_status_reports_progress(self, client):
        ack = client.submit(e2e_spec(name="status-check", seed=13))
        snap = client.status(ack["job_id"])
        assert snap["job_id"] == ack["job_id"]
        assert snap["total"] == 2
        assert snap["state"] in ("queued", "running", "done")

    def test_submit_accepts_plain_dict_spec(self, client):
        ack = client.submit(e2e_spec(name="dict-spec", seed=14).to_dict())
        assert ack["trials"] == 2


class TestErrors:
    def test_queue_full_is_structured(self, server, server_cache_dir):
        # a private server with limit 1 and a job parked in the queue
        big = e2e_spec(name="parked", trials=4, seed=21)
        with ProfilingServer(port=0, workers=1, queue_limit=1) as srv:
            with ServerClient(*srv.address) as c:
                c.submit(big)
                with pytest.raises(ServeError) as exc:
                    c.submit(e2e_spec(name="rejected", seed=22))
        err = exc.value
        assert err.code == "queue_full"
        assert err.details["limit"] == 1
        assert err.details["active"] == 1

    def test_bad_spec_rejected(self, client):
        with pytest.raises(ServeError) as exc:
            client.submit({"name": "broken", "kind": "no_such_kind"})
        assert exc.value.code == "bad_spec"

    def test_unknown_job(self, client):
        with pytest.raises(ServeError) as exc:
            client.status("job-999-deadbeef")
        assert exc.value.code == "unknown_job"

    def test_results_before_terminal_is_not_finished(self, server):
        # big enough to still be in flight when we ask
        with ServerClient(*server.address) as c:
            ack = c.submit(e2e_spec(name="early-ask", trials=6, seed=23))
            try:
                c.results(ack["job_id"])
            except ServeError as e:
                assert e.code == "not_finished"
            else:  # the job can legitimately win the race and finish
                assert c.status(ack["job_id"])["state"] == "done"

    def test_cancelled_job_results_are_job_failed(self, client):
        ack = client.submit(e2e_spec(name="cancel-me", trials=6, seed=24))
        client.cancel(ack["job_id"])
        with pytest.raises(ServeError) as exc:
            client.results(ack["job_id"])
        assert exc.value.code == "job_failed"

    def test_malformed_line_is_bad_request(self, server):
        with socket.create_connection(server.address, timeout=10) as sock:
            sock.sendall(b"this is not json\n")
            reply = json.loads(sock.makefile("rb").readline())
        assert reply["ok"] is False
        assert reply["error"]["code"] == "bad_request"

    def test_unknown_op_is_bad_request(self, server):
        # a shard agent's cache_export is no op of a plain server, and
        # a missing or non-string op is as unknown as a made-up one
        for request in (
            {"op": "frobnicate"},
            {"op": "cache_export", "key": "k"},
            {"job_id": "j"},
            {"op": 7},
        ):
            with socket.create_connection(server.address, timeout=10) as sock:
                f = sock.makefile("rwb")
                protocol.write_message(f, request)
                reply = protocol.read_message(f)
            assert reply["ok"] is False, request
            assert reply["error"]["code"] == "bad_request", request
            assert "known:" in reply["error"]["reason"], request


class TestServerPlumbing:
    def test_ping_reports_pool_and_queue(self, client, server):
        info = client.ping()
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert info["workers"] == 2
        assert len(info["worker_pids"]) == 2
        assert info["queue_limit"] == 4
        assert info["cached"] is True

    def test_many_clients_share_one_server(self, server):
        results = []

        def one_client(seed):
            with ServerClient(*server.address) as c:
                results.append(
                    c.run(e2e_spec(name=f"multi-{seed}", seed=seed)).state
                )

        threads = [
            threading.Thread(target=one_client, args=(30 + i,))
            for i in range(3)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert results == ["done", "done", "done"]

    def test_shutdown_op_stops_the_server(self):
        with ProfilingServer(port=0, workers=1) as srv:
            addr = srv.address
            with ServerClient(*addr) as c:
                assert c.shutdown()["stopping"] is True
            assert srv.stopping.wait(timeout=5)
        # a fresh connection must now fail
        with pytest.raises(OSError):
            socket.create_connection(addr, timeout=0.5)
