"""HTTP/JSON transport: a gateway over any repro service and its client.

The socket protocol is the native transport, but curl, dashboards, and
non-Python tooling want HTTP.  :class:`HttpGateway` is a thin stdlib
``http.server`` front end over any :class:`~repro.serve.ServerBase`
backend — it calls the *same* :meth:`~repro.serve.ServerBase.call` /
:meth:`~repro.serve.ServerBase.stream_events` dispatch surface the
socket handler uses, so every payload (acks, status snapshots,
results, stream events, structured errors) is byte-for-byte the
canonical protocol JSON; only the envelope changes (URL + status code
instead of a request line).

One table, :data:`ROUTES`, maps each routed op to its method and path.
The gateway routes requests by it and :class:`HttpClusterClient` (the
:class:`~repro.serve.ClientBase` op surface framed as HTTP) builds its
requests from it.  A POST sends the op's parameters (minus the
``job_id`` in its path) as its JSON body; a GET has no body; ``POST
/v1/shutdown`` stops the backend and the gateway.  Streaming uses
``Transfer-Encoding: chunked`` with one protocol JSON line per event —
``http.client`` (and every HTTP library) de-chunks transparently, so
the client reads the same NDJSON a socket stream carries.  Structured
error codes map onto HTTP status codes (``queue_full``/
``quota_exceeded`` → 429, ``unknown_job`` → 404, ...) while the body
keeps the full protocol error object, so HTTP clients branch on either.
"""

from __future__ import annotations

import random
import re
import threading
from http.client import HTTPConnection
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Iterator

from repro.errors import ServeError
from repro.serve import protocol
from repro.serve.client import ClientBase
from repro.serve.policy import RetryPolicy
from repro.serve.server import ServerBase

#: protocol op -> (HTTP method, path); ``{job_id}`` is one path segment
ROUTES = {
    "submit": ("POST", "/v1/jobs"),
    "status": ("GET", "/v1/jobs/{job_id}"),
    "results": ("GET", "/v1/jobs/{job_id}/results"),
    "cancel": ("POST", "/v1/jobs/{job_id}/cancel"),
    "stream": ("GET", "/v1/jobs/{job_id}/stream"),
    "ping": ("GET", "/v1/ping"),
    "agents_status": ("GET", "/v1/agents"),
    "agents_join": ("POST", "/v1/agents/join"),
    "agents_leave": ("POST", "/v1/agents/leave"),
    "shutdown": ("POST", "/v1/shutdown"),
}

#: structured protocol error code -> HTTP status
STATUS_BY_CODE = {
    "bad_request": 400,
    "bad_spec": 400,
    "protocol_mismatch": 400,
    "unknown_job": 404,
    "not_finished": 409,
    "job_failed": 409,
    "queue_full": 429,
    "quota_exceeded": 429,
    "connect_failed": 502,
}


def _status_for(response: dict[str, Any]) -> int:
    if response.get("ok"):
        return 200
    code = (response.get("error") or {}).get("code", "bad_request")
    return STATUS_BY_CODE.get(code, 500)


def _match(method: str, path: str) -> tuple[str, dict[str, Any]]:
    """The op a request line names in :data:`ROUTES`, and its path
    parameters; an unrouted request is a ``bad_request``."""
    clean = "/" + "/".join(p for p in path.split("?")[0].split("/") if p)
    for op, (verb, template) in ROUTES.items():
        pattern = template.format(job_id="(?P<job_id>[^/]+)")
        found = re.fullmatch(pattern, clean)
        if verb == method and found:
            return op, found.groupdict()
    raise ServeError(f"unknown path {path!r}")


class _GatewayHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests onto the backend's dispatch surface."""

    protocol_version = "HTTP/1.1"  # required for chunked streaming

    server: "_GatewayServer"

    def log_message(self, *args) -> None:  # quiet: the CLI prints once
        pass

    # -- plumbing ----------------------------------------------------------

    def _read_body(self) -> dict[str, Any]:
        raw = self.headers.get("Content-Length") or "0"
        try:
            length = int(raw)
        except ValueError:
            length = -1
        if length == 0:
            return {}
        if not 0 < length <= protocol.MAX_LINE_BYTES:
            # the body stays unread, so this connection cannot carry
            # another request
            self.close_connection = True
            raise ServeError(
                f"Content-Length {raw!r} is not a byte count in "
                f"1..{protocol.MAX_LINE_BYTES}"
            )
        try:
            body = protocol.decode_message(self.rfile.read(length))
        except protocol.ProtocolError as e:
            raise ServeError(str(e)) from None
        if not isinstance(body, dict):
            raise ServeError("request body must be a JSON object")
        return body

    def _send_json(self, response: dict[str, Any]) -> None:
        payload = protocol.encode_message(response)
        self.send_response(_status_for(response))
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(payload)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self.end_headers()
        self.wfile.write(payload)

    def _send_stream(self, events: Iterator[dict[str, Any]]) -> None:
        """One chunk per protocol line; ends with the zero chunk."""
        try:
            first = next(events)
        except ServeError as e:
            self._send_json(protocol.error_response(e.code, str(e)))
            return
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.send_header("Transfer-Encoding", "chunked")
        self.end_headers()
        self._write_chunk(protocol.encode_message(first))
        for event in events:
            self._write_chunk(protocol.encode_message(event))
        self.wfile.write(b"0\r\n\r\n")

    def _write_chunk(self, payload: bytes) -> None:
        self.wfile.write(f"{len(payload):x}\r\n".encode("ascii"))
        self.wfile.write(payload)
        self.wfile.write(b"\r\n")
        self.wfile.flush()

    # -- routing -----------------------------------------------------------

    def _route(self, method: str) -> None:
        backend = self.server.backend
        try:
            op, params = _match(method, self.path)
            if method == "POST":
                params = {**self._read_body(), **params}
            if op == "stream":
                self._send_stream(backend.stream_events(params))
                return
            response = backend.call(op, params)
            self._send_json(response)
            if op == "shutdown" and response["ok"]:
                threading.Thread(
                    target=self.server.gateway.stop, daemon=True
                ).start()
        except ServeError as e:
            self._send_json(protocol.error_response(e.code, str(e)))
        except (BrokenPipeError, ConnectionError):
            pass  # client went away; jobs live on, like the socket path

    def do_GET(self) -> None:
        self._route("GET")

    def do_POST(self) -> None:
        self._route("POST")


class _GatewayServer(ThreadingHTTPServer):
    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, backend: ServerBase, gateway: "HttpGateway"):
        self.backend = backend
        self.gateway = gateway
        super().__init__(addr, _GatewayHandler)


class HttpGateway:
    """HTTP front end for a running :class:`~repro.serve.ServerBase`.

    The gateway owns no jobs and no state — it is a transport adapter;
    stopping it leaves the backend (and its socket listener) running
    unless the stop came from ``POST /v1/shutdown``, which stops both.
    """

    def __init__(
        self, backend: ServerBase, host: str = "127.0.0.1", port: int = 0
    ) -> None:
        self.backend = backend
        self._server = _GatewayServer((host, port), backend, self)
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when ``port=0``."""
        return self._server.server_address[:2]

    def start(self) -> None:
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="cluster-http",
            daemon=True,
        )
        self._thread.start()

    def stop(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "HttpGateway":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


class HttpClusterClient(ClientBase):
    """The :class:`~repro.serve.ClientBase` op surface over HTTP.

    Each request opens one connection to its op's :data:`ROUTES`
    entry; an op with no route (``cache_export``, say) raises a
    structured ``bad_request``, and since a GET has no body,
    :meth:`handshake` checks the version on this side only.  Without a
    ``policy`` each request is one attempt: a ``submit`` is never sent
    twice.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 8123,
        timeout: float | None = 60.0,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(
            host,
            port,
            policy or RetryPolicy(max_attempts=1, op_timeout_s=timeout),
            rng,
        )

    @staticmethod
    def _request_line(
        op: str, params: dict[str, Any]
    ) -> tuple[str, str, bytes | None]:
        """``op``'s method, path and body, read from :data:`ROUTES`."""
        if op not in ROUTES:
            raise ServeError(
                f"op {op!r} has no HTTP route; routed: {', '.join(ROUTES)}"
            )
        method, template = ROUTES[op]
        body = {k: v for k, v in params.items() if k != "job_id"}
        payload = (
            protocol.encode_message(body) if method == "POST" and body
            else None
        )
        return method, template.format(job_id=params.get("job_id")), payload

    def _call(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        method, path, payload = self._request_line(op, params)
        headers = {"Content-Type": "application/json"} if payload else {}

        def once() -> dict[str, Any]:
            conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                conn.request(method, path, body=payload, headers=headers)
                return protocol.decode_message(conn.getresponse().read())
            finally:
                conn.close()

        return self._retried(once, f"http://{self.host}:{self.port}{path}")

    def _events(self, job_id: str) -> Iterator[dict[str, Any]]:
        method, path, _ = self._request_line("stream", {"job_id": job_id})

        def open_stream() -> tuple[HTTPConnection, Any]:
            conn = HTTPConnection(self.host, self.port, timeout=self.timeout)
            try:
                conn.request(method, path)
                return conn, conn.getresponse()
            except BaseException:
                conn.close()
                raise

        conn, response = self._retried(
            open_stream, f"http://{self.host}:{self.port}{path}"
        )
        try:
            if response.status != 200:
                yield protocol.decode_message(response.read())  # the error
                return
            while line := response.readline(protocol.MAX_LINE_BYTES + 1):
                yield protocol.decode_message(line)
        finally:
            conn.close()
