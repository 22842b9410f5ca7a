"""HTTP gateway: same payloads and e2e semantics as the socket.

The gateway is a transport adapter over
:meth:`~repro.serve.ServerBase.call` /
:meth:`~repro.serve.ServerBase.stream_events`, so this file runs the
same end-to-end shapes as the socket suite — submit/stream/results
parity, structured errors (now also as HTTP status codes), chunked
streaming — against both a plain :class:`ProfilingServer` backend and
a full two-agent cluster.
"""

import json
from http.client import HTTPConnection

import pytest

from repro.cluster import (
    Coordinator,
    HttpClusterClient,
    HttpGateway,
    ShardAgent,
    STATUS_BY_CODE,
)
from repro.errors import ServeError
from repro.orchestrate import ResultCache
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ProfilingServer, ServerClient, protocol


def http_spec(name="http-e2e", trials=2, seed=61):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


@pytest.fixture(scope="module")
def backend(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("http-cache"))
    with ProfilingServer(port=0, workers=2, cache=cache) as srv:
        yield srv


@pytest.fixture(scope="module")
def gateway(backend):
    with HttpGateway(backend) as gw:
        yield gw


@pytest.fixture()
def client(gateway):
    return HttpClusterClient(*gateway.address)


class TestHttpE2E:
    def test_run_round_trip(self, client):
        outcome = client.run(http_spec())
        assert outcome.state == "done"
        assert len(outcome.rows) == 2
        assert outcome.report is not None

    def test_http_and_socket_see_the_same_job(self, backend, client):
        # submit over HTTP, fetch over the socket: one job space
        ack = client.submit(http_spec(name="shared", seed=62))
        with ServerClient(*backend.address) as sock:
            job = backend.queue.get(ack["job_id"])
            job.wait_terminal(timeout=60)
            socket_results = sock.results(ack["job_id"])
        http_results = client.results(ack["job_id"])
        assert http_results["rows"] == socket_results["rows"]
        assert http_results["report"] == socket_results["report"]

    def test_stream_delivers_rows_then_end(self, client):
        ack = client.submit(http_spec(name="streamed", seed=63))
        events = list(client.stream(ack["job_id"]))
        assert [e["event"] for e in events] == ["row", "row", "end"]
        assert events[-1]["state"] == "done"

    def test_status_and_cancel(self, client):
        ack = client.submit(http_spec(name="cancelled", trials=6, seed=64))
        assert client.status(ack["job_id"])["total"] == 6
        assert client.cancel(ack["job_id"])["state"] == "cancelled"

    def test_ping(self, client):
        info = client.ping()
        assert info["protocol"] == protocol.PROTOCOL_VERSION
        assert info["workers"] == 2

    def test_handshake_checks_the_version_client_side(
        self, backend, client, monkeypatch
    ):
        assert client.handshake()["protocol"] == protocol.PROTOCOL_VERSION
        # GET /v1/ping has no body, so a skewed server is caught here
        monkeypatch.setattr(
            backend, "_op_ping", lambda _p: protocol.ok_response(protocol=99)
        )
        with pytest.raises(ServeError) as exc:
            client.handshake()
        assert exc.value.code == "protocol_mismatch"
        assert exc.value.details["server"] == 99


class TestHttpErrors:
    def test_unknown_job_is_404_with_structured_body(self, gateway):
        conn = HTTPConnection(*gateway.address, timeout=10)
        conn.request("GET", "/v1/jobs/job-999-deadbeef")
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 404
        assert body["error"]["code"] == "unknown_job"

    def test_bad_spec_is_400(self, gateway):
        conn = HTTPConnection(*gateway.address, timeout=10)
        payload = json.dumps(
            {"spec": {"name": "broken", "kind": "no_such_kind"}}
        ).encode()
        conn.request("POST", "/v1/jobs", body=payload,
                     headers={"Content-Type": "application/json"})
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_spec"

    def test_unknown_path_is_400(self, gateway):
        conn = HTTPConnection(*gateway.address, timeout=10)
        conn.request("GET", "/v2/everything")
        response = conn.getresponse()
        response.read()
        conn.close()
        assert response.status == 400

    @pytest.mark.parametrize("length", ["twelve", "-1"])
    def test_bad_content_length_is_400(self, gateway, length):
        # a non-integer length used to escape as a bare ValueError (an
        # empty reply); a negative one blocked the handler on read(-1)
        conn = HTTPConnection(*gateway.address, timeout=5)
        conn.putrequest("POST", "/v1/jobs")
        conn.putheader("Content-Length", length)
        conn.endheaders()
        response = conn.getresponse()
        body = json.loads(response.read())
        conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_request"
        assert "Content-Length" in body["error"]["reason"]
        # the body was never read, so the connection cannot be reused
        assert response.getheader("Connection") == "close"

    def test_stream_of_unknown_job_is_structured(self, client):
        with pytest.raises(ServeError) as exc:
            list(client.stream("job-999-deadbeef"))
        assert exc.value.code == "unknown_job"

    def test_op_without_a_route_is_structured(self, client):
        with pytest.raises(ServeError) as exc:
            client.request("cache_export", key="k")
        assert exc.value.code == "bad_request"
        assert "no HTTP route" in str(exc.value)

    def test_client_raises_typed_errors(self, client):
        with pytest.raises(ServeError) as exc:
            client.results("job-999-deadbeef")
        assert exc.value.code == "unknown_job"

    def test_connect_failed_is_structured(self):
        dead = HttpClusterClient("127.0.0.1", 1, timeout=2)
        with pytest.raises(ServeError) as exc:
            dead.ping()
        assert exc.value.code == "connect_failed"

    def test_status_map_covers_every_protocol_error_code(self):
        for code in protocol.ERROR_CODES:
            assert STATUS_BY_CODE.get(code, 500) >= 400


class TestHttpOverCluster:
    def test_cluster_run_over_http(self, tmp_path):
        spec = http_spec(name="http-cluster", seed=65)
        with ShardAgent(
            port=0, workers=2, cache=ResultCache(tmp_path / "a")
        ) as a, ShardAgent(
            port=0, workers=2, cache=ResultCache(tmp_path / "b")
        ) as b:
            coord = Coordinator(
                port=0,
                agents=[a.address, b.address],
                cache=ResultCache(tmp_path / "coord"),
            )
            with coord, HttpGateway(coord) as gw:
                client = HttpClusterClient(*gw.address)
                first = client.run(spec, tenant="http-tests")
                assert first.state == "done"
                assert first.report is not None
                replay = client.run(spec, tenant="http-tests")
                assert replay.state == "done"
                assert all(e["cached"] for e in replay.rows)
                assert client.ping()["role"] == "coordinator"
