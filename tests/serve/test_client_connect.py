"""Client connect retry/backoff and the version handshake.

Satellites of the cluster PR: a dead host must fail in bounded time
with a structured ``connect_failed`` error (the coordinator's agent
registration depends on it), and version-skewed peers must be
rejected with ``protocol_mismatch`` in both directions.
"""

import contextlib
import random
import socket
import socketserver
import threading
import time

import pytest

from repro.cluster import HttpClusterClient, HttpGateway
from repro.errors import ServeError
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ProfilingServer, RetryPolicy, ServerClient, protocol


@pytest.fixture(scope="module")
def server():
    with ProfilingServer(port=0, workers=1) as srv:
        yield srv


def closed_port():
    """A port nothing listens on (bound then immediately released)."""
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


class TestConnectRetry:
    def test_dead_host_fails_with_structured_error(self):
        port = closed_port()
        client = ServerClient(
            "127.0.0.1", port,
            policy=RetryPolicy(max_attempts=3, base_backoff_s=0.01),
        )
        with pytest.raises(ServeError) as exc:
            client.connect()
        err = exc.value
        assert err.code == "connect_failed"
        assert err.details["host"] == "127.0.0.1"
        assert err.details["port"] == port
        assert err.details["attempts"] == 3

    def test_zero_retries_fails_fast(self):
        client = ServerClient(
            "127.0.0.1", closed_port(),
            policy=RetryPolicy(max_attempts=1, base_backoff_s=0.01),
        )
        with pytest.raises(ServeError) as exc:
            client.connect()
        assert exc.value.details["attempts"] == 1

    def test_backoff_is_exponential(self, monkeypatch):
        # a jitter-free policy sleeps the exact exponential bounds
        sleeps = []
        monkeypatch.setattr(
            "repro.serve.client.time.sleep", sleeps.append
        )
        client = ServerClient(
            "127.0.0.1", closed_port(),
            policy=RetryPolicy(
                max_attempts=4, base_backoff_s=0.1, jitter=False
            ),
        )
        with pytest.raises(ServeError):
            client.connect()
        assert sleeps == pytest.approx([0.1, 0.2, 0.4])

    def test_connect_failed_reports_elapsed_time(self):
        client = ServerClient(
            "127.0.0.1", closed_port(),
            policy=RetryPolicy(max_attempts=1, base_backoff_s=0.0),
        )
        with pytest.raises(ServeError) as exc:
            client.connect()
        assert exc.value.details["elapsed_s"] >= 0.0


@pytest.mark.parametrize("client_cls", [ServerClient, HttpClusterClient])
@pytest.mark.parametrize("op", ["ping", "stream"])
def test_both_clients_report_the_same_connect_failed(client_cls, op):
    # one helper turns spent attempts into the error on either framing
    port = closed_port()
    client = client_cls(
        "127.0.0.1", port,
        policy=RetryPolicy(max_attempts=2, base_backoff_s=0.0),
    )
    with pytest.raises(ServeError) as exc:
        if op == "ping":
            client.ping()
        else:
            list(client.stream("job-0-none"))
    err = exc.value
    assert err.code == "connect_failed"
    assert set(err.details) == {"host", "port", "attempts", "elapsed_s"}
    assert err.details["host"] == "127.0.0.1"
    assert err.details["port"] == port
    assert err.details["attempts"] == 2
    assert 0.0 <= err.details["elapsed_s"] < 5.0


class TestPolicyConnect:
    def test_full_jitter_draws_below_the_exponential_bounds(
        self, monkeypatch
    ):
        sleeps = []
        monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
        policy = RetryPolicy(
            max_attempts=4, base_backoff_s=0.1, backoff_cap_s=10.0,
            jitter=True,
        )
        client = ServerClient(
            "127.0.0.1", closed_port(), policy=policy,
            rng=random.Random(11),
        )
        with pytest.raises(ServeError):
            client.connect()
        assert len(sleeps) == 3
        for pause, bound in zip(sleeps, [0.1, 0.2, 0.4]):
            assert 0.0 <= pause <= bound

    def test_backoff_cap_bounds_every_sleep(self, monkeypatch):
        sleeps = []
        monkeypatch.setattr("repro.serve.client.time.sleep", sleeps.append)
        policy = RetryPolicy(
            max_attempts=6, base_backoff_s=0.1, backoff_cap_s=0.15,
            jitter=False,
        )
        client = ServerClient("127.0.0.1", closed_port(), policy=policy)
        with pytest.raises(ServeError):
            client.connect()
        assert sleeps == pytest.approx([0.1, 0.15, 0.15, 0.15, 0.15])

    def test_policy_sets_socket_timeouts(self, server):
        policy = RetryPolicy(op_timeout_s=12.5, connect_timeout_s=1.25)
        with ServerClient(*server.address, policy=policy) as client:
            assert client._sock.gettimeout() == 12.5
        assert client.timeout == 12.5
        assert client.policy.connect_timeout_s == 1.25

    def test_transient_refusal_is_retried_to_success(
        self, server, monkeypatch
    ):
        real_connect = socket.create_connection
        failures = [2]  # first two attempts refused, third real

        def flaky(address, **kwargs):
            if failures[0] > 0:
                failures[0] -= 1
                raise ConnectionRefusedError("simulated refusal")
            return real_connect(address, **kwargs)

        monkeypatch.setattr(
            "repro.serve.client.socket.create_connection", flaky
        )
        with ServerClient(
            *server.address,
            policy=RetryPolicy(max_attempts=3, base_backoff_s=0.01),
        ) as client:
            assert client.ping()["workers"] == 1
        assert failures[0] == 0

    def test_connect_timeout_bounds_each_attempt(self, monkeypatch):
        seen = []

        def capture(address, **kwargs):
            seen.append(kwargs.get("timeout"))
            raise OSError("down")

        monkeypatch.setattr(
            "repro.serve.client.socket.create_connection", capture
        )
        client = ServerClient(
            "127.0.0.1", 7123,
            policy=RetryPolicy(
                max_attempts=2, base_backoff_s=0.0, connect_timeout_s=1.5
            ),
        )
        with pytest.raises(ServeError):
            client.connect()
        assert seen == [1.5, 1.5]


class TestReconnect:
    def test_a_timed_out_request_drops_the_connection(self):
        # the first request is answered late: the client times out, and
        # its next request must reconnect rather than reuse the socket
        # file the timeout left unreadable
        requests = []

        class LateHandler(socketserver.StreamRequestHandler):
            def handle(self):
                try:
                    while protocol.read_message(self.rfile) is not None:
                        requests.append(True)
                        if len(requests) == 1:
                            time.sleep(0.5)
                        protocol.write_message(
                            self.wfile, protocol.ok_response(workers=1)
                        )
                except OSError:
                    pass  # the client dropped the late connection

        class LateServer(socketserver.ThreadingTCPServer):
            daemon_threads = True

        with LateServer(("127.0.0.1", 0), LateHandler) as late:
            threading.Thread(target=late.serve_forever, daemon=True).start()
            client = ServerClient(*late.server_address[:2], timeout=0.1)
            try:
                with pytest.raises(OSError):
                    client.ping()
                assert client.ping()["workers"] == 1
            finally:
                client.close()
                late.shutdown()


@pytest.mark.parametrize("client_cls", [ServerClient, HttpClusterClient])
def test_a_request_after_an_abandoned_stream_gets_its_own_reply(
    server, client_cls
):
    # a caller that stops before the end event must not leave the
    # stream's remaining rows to be read as the next request's reply
    spec = ScenarioSpec(
        name=f"abandoned-{client_cls.__name__}",
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=3,
    )
    with contextlib.ExitStack() as stack:
        address = server.address
        if client_cls is HttpClusterClient:
            address = stack.enter_context(HttpGateway(server)).address
        client = stack.enter_context(client_cls(*address))
        job_id = client.submit(spec)["job_id"]
        for event in client.stream(job_id):
            assert event["event"] == "row"
            break
        assert client.status(job_id)["job_id"] == job_id
        assert client.run(spec).state == "done"


class TestHandshake:
    def test_matching_versions_shake_hands(self, server):
        with ServerClient(*server.address) as client:
            info = client.handshake()
        assert info["protocol"] == protocol.PROTOCOL_VERSION

    def test_server_rejects_skewed_client(self, server):
        # a future client announcing a version this server won't speak;
        # a stream is gated before its job is even looked up
        for op in ("ping", "stream"):
            with ServerClient(*server.address) as client:
                with pytest.raises(ServeError) as exc:
                    client.request(op, job_id="job-0-none", protocol=99)
                # the connection survives the rejection
                assert client.ping()["workers"] == 1
            err = exc.value
            assert err.code == "protocol_mismatch", op
            assert err.details["server"] == protocol.PROTOCOL_VERSION
            assert err.details["client"] == 99

    def test_unversioned_ping_still_works(self, server):
        # plain pings (no protocol field) are not rejected — the
        # version gate only fires on an explicit mismatch
        with ServerClient(*server.address) as client:
            assert client.ping()["workers"] == 1

    def test_client_rejects_skewed_server(self):
        import socketserver
        import threading

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
            threading.Thread(target=skew.serve_forever, daemon=True).start()
            with ServerClient(*skew.server_address[:2]) as client:
                with pytest.raises(ServeError) as exc:
                    client.handshake()
            skew.shutdown()
        assert exc.value.code == "protocol_mismatch"
        assert exc.value.details["server"] == 99
        assert exc.value.details["client"] == protocol.PROTOCOL_VERSION
