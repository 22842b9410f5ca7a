"""Clients for the profiling service: one op surface, two framings.

:class:`ClientBase` holds every protocol op as a typed method, the
structured-error mapping (a failure response raises
:class:`~repro.errors.ServeError` with the server's ``code``/details,
so callers can branch on ``queue_full`` vs ``bad_spec`` without
parsing prose), :meth:`~ClientBase.stream` and the
submit → stream → results loop :meth:`~ClientBase.run`.  A subclass
only frames messages: :class:`ServerClient` writes them as lines on one
socket, :class:`~repro.cluster.HttpClusterClient` as HTTP requests.

Quickstart::

    from repro.scenarios import load_scenario
    from repro.serve import ServerClient

    with ServerClient(port=7123) as client:
        outcome = client.run(load_scenario("quickstart"))
        for event in outcome.rows:
            print(event["index"], event["row"])
        print(outcome.report["provenance"]["spec_hash"])
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.errors import ServeError
from repro.scenarios.spec import ScenarioSpec
from repro.serve import protocol
from repro.serve.policy import RetryPolicy


@dataclass
class RunOutcome:
    """Everything one :meth:`ClientBase.run` call produced.

    ``rows`` are the streamed row events in landing order (each with
    ``index``/``cached``/``row``); ``report`` is the server's final
    report dict (provenance/execution/spec/results) for ``done`` jobs,
    ``None`` for ``partial`` ones.
    """

    job_id: str
    state: str
    rows: list[dict] = field(default_factory=list)
    report: dict | None = None
    error: str | None = None


class ClientBase:
    """The protocol op surface every repro client shares.

    The client-side mirror of :class:`~repro.serve.ServerBase`: a
    subclass supplies the framing — :meth:`connect` / :meth:`close`,
    ``_call(op, params)`` returning one response dict, and
    ``_events(job_id)`` yielding a stream's messages (the ack, then the
    events) — and inherits every op from here.
    """

    def __init__(
        self,
        host: str,
        port: int,
        policy: RetryPolicy,
        rng: random.Random | None,
    ) -> None:
        self.host = host
        self.port = port
        #: the :class:`~repro.serve.RetryPolicy` governing attempts,
        #: backoff shape and socket timeouts
        self.policy = policy
        self.timeout = policy.op_timeout_s
        self._rng = rng

    # -- framing -----------------------------------------------------------

    def connect(self) -> "ClientBase":
        """Open the transport; a client that connects per request has
        nothing to open."""
        return self

    def close(self) -> None:
        """Release the transport; idempotent."""

    def __enter__(self) -> "ClientBase":
        return self.connect()

    def __exit__(self, *exc) -> None:
        self.close()

    def _retried(self, fn: Callable[[], Any], where: str) -> Any:
        """``fn`` through :meth:`RetryPolicy.call`; an ``OSError`` that
        outlives every attempt becomes the structured ``connect_failed``
        error naming ``host``, ``port``, ``attempts`` and ``elapsed_s``."""
        started = time.monotonic()
        try:
            return self.policy.call(fn, rng=self._rng)
        except OSError as e:
            attempts = self.policy.max_attempts
            elapsed_s = round(time.monotonic() - started, 3)
            raise ServeError(
                f"could not reach {where} after {attempts} attempt(s) "
                f"({elapsed_s}s): {e}",
                code="connect_failed",
                host=self.host,
                port=self.port,
                attempts=attempts,
                elapsed_s=elapsed_s,
            ) from e

    @staticmethod
    def _checked(response: dict[str, Any]) -> dict[str, Any]:
        if response.get("ok"):
            return response
        err = response.get("error") or {}
        raise ServeError(
            err.get("reason", "server reported an error"),
            code=err.get("code", "bad_request"),
            **{k: v for k, v in err.items() if k not in ("code", "reason")},
        )

    # -- ops ---------------------------------------------------------------

    def request(self, op: str, **params: Any) -> dict[str, Any]:
        """One arbitrary-op request/response round trip.

        The escape hatch for protocol extensions — the cluster shard
        agents accept ``cache_export`` / ``cache_import`` beyond the
        base :data:`~repro.serve.protocol.OPS`, and this is how the
        coordinator's replicator reaches them with the same structured
        error handling as the typed methods.
        """
        return self._checked(self._call(op, params))

    def submit(
        self,
        spec: ScenarioSpec | dict,
        priority: int = 0,
        trial_indices: list[int] | None = None,
        tenant: str | None = None,
    ) -> dict[str, Any]:
        """Submit a scenario; returns the admission ack (``job_id`` ...).

        ``trial_indices`` restricts the job to a sub-grid of the spec's
        plan (the shard agents' primitive; a coordinator rejects it);
        ``tenant`` names the quota bucket on coordinators that enforce
        per-tenant quotas.  Raises :class:`~repro.errors.ServeError`
        with ``code="queue_full"`` (or ``"quota_exceeded"``) when
        admission rejects the job.
        """
        spec_dict = spec.to_dict() if isinstance(spec, ScenarioSpec) else spec
        params: dict[str, Any] = {"spec": spec_dict, "priority": priority}
        if trial_indices is not None:
            params["trial_indices"] = list(trial_indices)
        if tenant is not None:
            params["tenant"] = tenant
        return self.request("submit", **params)

    def status(self, job_id: str) -> dict[str, Any]:
        """The job's state/progress snapshot."""
        return self.request("status", job_id=job_id)

    def results(self, job_id: str) -> dict[str, Any]:
        """Final rows + report for a ``done``/``partial`` job."""
        return self.request("results", job_id=job_id)

    def stream(self, job_id: str) -> Iterator[dict[str, Any]]:
        """Yield row events as trials land; ends after the ``end`` event.

        The generator yields every ``{"event": "row", ...}`` dict and
        finally the ``{"event": "end", "state": ...}`` dict.  A caller
        may stop early: the stream's transport is then dropped, so the
        next request starts on a clean connection.
        """
        for msg in self._events(job_id):
            if "event" not in msg:
                self._checked(msg)  # the ack, or a structured error
                continue
            yield msg
            if msg["event"] == "end":
                return

    def cancel(self, job_id: str) -> dict[str, Any]:
        """Cancel a queued/running job."""
        return self.request("cancel", job_id=job_id)

    def ping(self) -> dict[str, Any]:
        """Server liveness + pool/queue statistics."""
        return self.request("ping")

    def handshake(self) -> dict[str, Any]:
        """Version-checked ping: both sides verify PROTOCOL_VERSION.

        The request carries this client's
        :data:`~repro.serve.protocol.PROTOCOL_VERSION` so the server
        rejects a skewed peer with a structured ``protocol_mismatch``
        error; the response's version is checked symmetrically here.
        The cluster coordinator handshakes every agent it registers.
        """
        info = self.request("ping", protocol=protocol.PROTOCOL_VERSION)
        if info.get("protocol") != protocol.PROTOCOL_VERSION:
            raise ServeError(
                f"server {self.host}:{self.port} speaks protocol "
                f"{info.get('protocol')!r}, this client speaks "
                f"{protocol.PROTOCOL_VERSION}",
                code="protocol_mismatch",
                server=info.get("protocol"),
                client=protocol.PROTOCOL_VERSION,
            )
        return info

    def agents_status(self) -> dict[str, Any]:
        """A coordinator's membership table and epoch."""
        return self.request("agents_status")

    def agents_join(self, host: str, port: int) -> dict[str, Any]:
        """Admit (or revive) an agent in a coordinator's membership."""
        return self.request("agents_join", host=host, port=port)

    def agents_leave(self, host: str, port: int) -> dict[str, Any]:
        """Deregister an agent (state ``left``; never auto-revived)."""
        return self.request("agents_leave", host=host, port=port)

    def shutdown(self) -> dict[str, Any]:
        """Ask the server to stop (acknowledged before it unwinds)."""
        response = self.request("shutdown")
        self.close()
        return response

    def run(
        self,
        spec: ScenarioSpec | dict,
        priority: int = 0,
        tenant: str | None = None,
    ) -> RunOutcome:
        """Submit, stream every row, then fetch the final results."""
        ack = self.submit(spec, priority=priority, tenant=tenant)
        job_id = ack["job_id"]
        rows: list[dict] = []
        state = "running"
        error = None
        for event in self.stream(job_id):
            if event.get("event") == "row":
                rows.append(
                    {k: event[k] for k in ("index", "cached", "row")}
                )
            else:
                state = event.get("state", "done")
                error = event.get("error")
        report = None
        if state in ("done", "partial"):
            report = self.results(job_id).get("report")
        return RunOutcome(
            job_id=job_id, state=state, rows=rows, report=report, error=error
        )


class ServerClient(ClientBase):
    """One line-JSON socket connection to a :class:`~repro.serve.ServerBase`.

    Without a ``policy``, a connect makes 3 jitter-free attempts (0.1 s
    base backoff, 5 s per dial) and ``timeout`` bounds each request.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7123,
        timeout: float | None = 60.0,
        policy: RetryPolicy | None = None,
        rng: random.Random | None = None,
    ) -> None:
        super().__init__(
            host,
            port,
            policy or RetryPolicy(jitter=False, op_timeout_s=timeout),
            rng,
        )
        self._sock: socket.socket | None = None
        self._rfile = None
        self._wfile = None

    def connect(self) -> "ServerClient":
        """Open the socket (lazy: request methods call this on demand).

        Each dial is bounded by the policy's ``connect_timeout_s`` and
        retried through :meth:`~repro.serve.RetryPolicy.call`; a host
        that stays unreachable raises the structured ``connect_failed``
        error instead of blocking.
        """
        if self._sock is not None:
            return self
        self._sock = self._retried(
            lambda: socket.create_connection(
                (self.host, self.port),
                timeout=self.policy.connect_timeout_s,
            ),
            f"{self.host}:{self.port}",
        )
        self._sock.settimeout(self.policy.op_timeout_s)
        self._rfile = self._sock.makefile("rb")
        self._wfile = self._sock.makefile("wb")
        return self

    def close(self) -> None:
        """Close the connection; idempotent."""
        for f in (self._rfile, self._wfile):
            if f is not None:
                try:
                    f.close()
                except OSError:
                    pass
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:
                pass
        self._sock = self._rfile = self._wfile = None

    def _exchange(self, request: dict | None = None) -> dict[str, Any]:
        """Write ``request`` (if any), then read one message.

        A failed exchange closes the connection: a socket file that
        timed out (or broke) stays unusable, so the next request must
        reconnect instead of failing on the dead file.
        """
        try:
            if request is not None:
                protocol.write_message(self._wfile, request)
            msg = protocol.read_message(self._rfile)
            if msg is None:
                raise ServeError("server closed the connection")
            return msg
        except BaseException:
            self.close()
            raise

    def _call(self, op: str, params: dict[str, Any]) -> dict[str, Any]:
        self.connect()
        return self._exchange({"op": op, **params})

    def _events(self, job_id: str) -> Iterator[dict[str, Any]]:
        ack = self._call("stream", {"job_id": job_id})
        # an error ack is the whole reply; an accepted stream owns the
        # socket until its end event
        done = not ack.get("ok")
        try:
            yield ack
            while not done:
                msg = self._exchange()
                done = msg.get("event") == "end"
                yield msg
        finally:
            if not done:
                # left early: the stream's unread rest would be taken
                # for the next request's reply, so drop the connection
                self.close()
