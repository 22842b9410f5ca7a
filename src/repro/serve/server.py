"""The profiling server: a persistent Session behind a TCP socket.

Two classes live here:

:class:`ServerBase`
    The transport and job bookkeeping every repro service shares — the
    TCP listener with one handler thread per connection, the one
    request check (protocol version, then op) with structured error
    mapping, and the job-centric ops
    (``status`` / ``results`` / ``stream`` / ``cancel`` / ``shutdown``)
    that only need a :class:`~repro.serve.queue.JobQueue`.  Subclasses
    provide admission (``submit``) and liveness (``ping``).  The
    :meth:`ServerBase.call` / :meth:`ServerBase.stream_events` pair is
    the same dispatch surface without a socket, which is what the
    HTTP/JSON gateway (:mod:`repro.cluster.http`) and in-process tests
    drive — one semantics, many transports.

:class:`ProfilingServer`
    The single-host service: :class:`ServerBase` composed with a
    bounded :class:`~repro.serve.queue.JobQueue`, fair
    :class:`~repro.serve.scheduler.Scheduler`, persistent
    :class:`~repro.orchestrate.WorkerPool`, and shared
    :class:`~repro.orchestrate.ResultCache`.  ``submit`` may carry
    ``trial_indices`` to run a *sub-grid* of the spec's plan — the
    primitive the cluster coordinator shards jobs with (cache keys are
    planned identically, so a sub-grid row is byte-identical to the
    same row in a full run).

Each client connection gets a handler thread that serves any number of
requests; ``stream`` holds the connection open and pushes row events
as trials land.  A client that disconnects mid-stream only ends its
own handler: the job keeps running and completes into the cache.

Lifecycle::

    with ProfilingServer(workers=4, cache=ResultCache(dir)) as srv:
        srv.start()                  # scheduler + listener threads
        host, port = srv.address     # port 0 above -> OS-assigned
        ...
    # or, blocking (the `repro serve` CLI): srv.serve_forever()

The ``shutdown`` op (or :meth:`ServerBase.stop`) stops the listener
and every composed component.
"""

from __future__ import annotations

import socketserver
import threading
from typing import Any, BinaryIO, Iterator

from repro.errors import ReproError, ScenarioError, ServeError
from repro.machine.spec import MachineSpec
from repro.orchestrate import ResultCache, WorkerPool, cache_key
from repro.scenarios.session import _json_safe
from repro.scenarios.spec import ScenarioSpec
from repro.serve import protocol
from repro.serve.queue import Job, JobQueue
from repro.serve.scheduler import Scheduler
from repro.substrate import FORMAT_VERSION as SUBSTRATE_VERSION

#: seconds a stream waits per poll before re-checking job state
_STREAM_POLL_S = 0.1


class _Listener(socketserver.ThreadingTCPServer):
    """Per-connection handler threads over one shared server core."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, addr, server: "ServerBase") -> None:
        self.profiling_server = server
        super().__init__(addr, _Handler)


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: read request lines, write response lines."""

    def handle(self) -> None:
        server = self.server.profiling_server
        while not server.stopping.is_set():
            try:
                msg = protocol.read_message(self.rfile)
            except protocol.ProtocolError as e:
                protocol.write_message(
                    self.wfile,
                    protocol.error_response("bad_request", str(e)),
                )
                return
            except (ConnectionError, OSError):
                return
            if msg is None:
                return  # clean EOF
            try:
                keep_going = server.dispatch(msg, self.wfile)
            except (BrokenPipeError, ConnectionError, OSError):
                return  # client went away; the job lives on
            if not keep_going:
                return


class ServerBase:
    """Socket transport + job ops shared by every repro service.

    Subclasses own a :class:`~repro.serve.queue.JobQueue` as
    :attr:`queue` and implement ``_op_submit`` / ``_op_ping`` (and any
    extra ``_op_<name>`` listed in their :attr:`OPS` extension);
    everything else — listening, dispatch, streaming, cancellation,
    shutdown — is inherited.
    """

    #: operations this server accepts; subclasses may extend the tuple
    OPS: tuple[str, ...] = protocol.OPS

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self.queue: JobQueue  # provided by the subclass before start()
        self.stopping = threading.Event()
        self._listener = _Listener((host, port), self)
        self._listener_thread: threading.Thread | None = None
        self._started = False
        # the shutdown op and __exit__ can race into stop(); serialize
        # so whoever returns from stop() sees a fully-closed server
        self._stop_lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    @property
    def address(self) -> tuple[str, int]:
        """The bound (host, port) — resolved even when ``port=0``."""
        return self._listener.server_address[:2]

    def start(self) -> None:
        """Start the component threads and the listener; returns at once."""
        if self._started:
            return
        self._started = True
        self._start_components()
        self._listener_thread = threading.Thread(
            target=self._listener.serve_forever,
            kwargs={"poll_interval": 0.1},
            name="serve-listener",
            daemon=True,
        )
        self._listener_thread.start()

    def serve_forever(self) -> None:
        """Start and block until a ``shutdown`` request (the CLI path)."""
        self.start()
        try:
            self.stopping.wait()
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        """Stop listener and composed components; idempotent.

        Safe after a *failed* :meth:`start` too: ``shutdown()`` on a
        listener whose ``serve_forever`` never ran would block forever,
        so it is only issued when the listener thread actually exists.
        """
        self.stopping.set()
        with self._stop_lock:
            thread, self._listener_thread = self._listener_thread, None
            if thread is not None:
                self._listener.shutdown()
                thread.join(timeout=5.0)
            self._listener.server_close()
            self._stop_components()

    def _start_components(self) -> None:
        """Subclass hook: start scheduler/dispatcher threads."""

    def _stop_components(self) -> None:
        """Subclass hook: stop pools/schedulers/clients."""

    def __enter__(self) -> "ServerBase":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- request dispatch --------------------------------------------------

    @staticmethod
    def _check_version(params: dict[str, Any]) -> None:
        """Reject a request whose ``protocol`` is not this server's."""
        skew = protocol.check_protocol(params)
        if skew is not None:
            error = skew["error"]
            raise ServeError(error.pop("reason"), **error)

    def call(self, op: Any, params: dict[str, Any]) -> dict[str, Any]:
        """Serve one non-stream request as a response dict.

        The one place a request's protocol version and op are checked
        (:meth:`stream_events` does the same for streams): the socket
        and the HTTP gateway only frame what it returns.
        """
        try:
            self._check_version(params)
            if op not in self.OPS or op == "stream":
                raise ServeError(
                    f"unknown or missing op {op!r}; "
                    f"known: {', '.join(self.OPS)}"
                )
            return getattr(self, f"_op_{op}")(params)
        except ServeError as e:
            return protocol.error_response(
                e.code, str(e), **_json_safe(e.details)
            )
        except ScenarioError as e:
            return protocol.error_response("bad_spec", str(e))
        except ReproError as e:
            return protocol.error_response("bad_request", str(e))

    def dispatch(self, msg: dict[str, Any], wfile: BinaryIO) -> bool:
        """Serve one request line onto ``wfile``; False closes the
        connection (after a ``shutdown``, or a stream cut short)."""
        op = msg.get("op")
        params = {k: v for k, v in msg.items() if k != "op"}
        if op == "stream":
            return self._op_stream(params, wfile)
        response = self.call(op, params)
        protocol.write_message(wfile, response)
        return op != "shutdown" or not response["ok"]

    # -- shared ops --------------------------------------------------------

    def _require_job(self, params: dict[str, Any]) -> Job:
        job_id = params.get("job_id")
        if not isinstance(job_id, str):
            raise ServeError("request needs a string job_id")
        return self.queue.get(job_id)

    def _op_status(self, params: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_response(**self._require_job(params).snapshot())

    def _op_results(self, params: dict[str, Any]) -> dict[str, Any]:
        job = self._require_job(params)
        snap = job.snapshot()
        state = snap["state"]
        if state not in ("done", "partial"):
            code = "not_finished" if state in ("queued", "running") else "job_failed"
            raise ServeError(
                f"job {job.id} is {state}; results need done/partial",
                code=code,
                state=state,
                error=snap["error"],
            )
        with job.cond:
            rows = [
                {"index": e["index"], "cached": e["cached"],
                 "row": _json_safe(e["row"])}
                for e in job.events
            ]
            report = job.report.to_dict() if job.report is not None else None
        return protocol.ok_response(
            job_id=job.id, state=state, rows=rows, report=report,
            lost=snap["lost"], error=snap["error"],
        )

    def stream_events(
        self, params: dict[str, Any]
    ) -> Iterator[dict[str, Any]]:
        """Yield one job's stream messages: the ack, every ``row``
        event, then ``end`` — the transport-agnostic body of the
        ``stream`` op (socket handlers write the dicts as lines, the
        HTTP gateway as chunks).  Raises :class:`ServeError` before the
        first yield for a skewed protocol version or an unknown job;
        ends without an ``end`` event only if the server is stopping.
        """
        self._check_version(params)
        job = self._require_job(params)
        yield protocol.ok_response(
            job_id=job.id, streaming=True, trials=job.total
        )
        sent = 0
        while not self.stopping.is_set():
            events, state = job.events_since(sent, timeout=_STREAM_POLL_S)
            for e in events:
                yield {
                    "event": "row",
                    "index": e["index"],
                    "cached": e["cached"],
                    "row": _json_safe(e["row"]),
                }
                sent += 1
            if state in ("done", "partial", "failed", "cancelled"):
                with job.cond:
                    drained = sent >= len(job.events)
                if drained:
                    yield {"event": "end", "state": state, "error": job.error}
                    return

    def _op_stream(self, params: dict[str, Any], wfile: BinaryIO) -> bool:
        try:
            stream = self.stream_events(params)
            first = next(stream)
        except ServeError as e:
            protocol.write_message(
                wfile, protocol.error_response(e.code, str(e), **e.details)
            )
            return True
        protocol.write_message(wfile, first)
        ended = False
        for event in stream:
            protocol.write_message(wfile, event)
            ended = event.get("event") == "end"
        return ended  # a stopping server closes the connection instead

    def _op_cancel(self, params: dict[str, Any]) -> dict[str, Any]:
        job = self._require_job(params)
        state = self.queue.cancel(job.id)
        return protocol.ok_response(job_id=job.id, state=state)

    def _op_shutdown(self, _params: dict[str, Any]) -> dict[str, Any]:
        # reply first (dispatch returns False to close this connection),
        # then stop from another thread so the listener can unwind
        threading.Thread(target=self.stop, daemon=True).start()
        return protocol.ok_response(stopping=True)


class ProfilingServer(ServerBase):
    """A long-running profiling service over one worker pool and cache."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 2,
        cache: ResultCache | None = None,
        machine: MachineSpec | None = None,
        queue_limit: int = 16,
    ) -> None:
        super().__init__(host, port)
        self.queue = JobQueue(limit=queue_limit)
        self.pool = WorkerPool(workers=workers)
        self.scheduler = Scheduler(
            self.queue, self.pool, cache=cache, machine=machine
        )
        self.cache = cache

    def _start_components(self) -> None:
        self.scheduler.start()

    def _stop_components(self) -> None:
        self.scheduler.stop()
        self.pool.close()

    # -- ops ---------------------------------------------------------------

    def _op_submit(self, params: dict[str, Any]) -> dict[str, Any]:
        spec_dict = params.get("spec")
        if not isinstance(spec_dict, dict):
            raise ServeError("submit needs a spec object")
        spec = ScenarioSpec.from_dict(spec_dict)
        priority = params.get("priority", 0)
        if not isinstance(priority, int):
            raise ServeError("priority must be an integer")
        trial_specs = self.scheduler.session.plan(spec)
        indices = params.get("trial_indices")
        subset = False
        if indices is not None:
            indices = self._checked_indices(indices, len(trial_specs))
            trial_specs = [trial_specs[i] for i in indices]
            subset = True
        keys = [
            cache_key(t.experiment, t.config, t.seed) for t in trial_specs
        ]
        job = self.queue.submit(
            spec, trial_specs, keys, priority=priority, subset=subset
        )
        with self.queue.changed:
            self.queue.changed.notify_all()
        return protocol.ok_response(
            job_id=job.id,
            state=job.state,
            trials=job.total,
            spec_hash=spec.spec_hash(),
        )

    @staticmethod
    def _checked_indices(indices: Any, total: int) -> list[int]:
        """Validate a submit's ``trial_indices`` against the plan size."""
        if (
            not isinstance(indices, list)
            or not indices
            or not all(isinstance(i, int) and not isinstance(i, bool)
                       for i in indices)
        ):
            raise ServeError(
                "trial_indices must be a non-empty list of integers"
            )
        if len(set(indices)) != len(indices):
            raise ServeError("trial_indices must not repeat an index")
        bad = [i for i in indices if not 0 <= i < total]
        if bad:
            raise ServeError(
                f"trial_indices out of range for a {total}-trial plan: {bad}"
            )
        return list(indices)

    def _op_ping(self, _params: dict[str, Any]) -> dict[str, Any]:
        return protocol.ok_response(
            protocol=protocol.PROTOCOL_VERSION,
            workers=self.pool.workers,
            worker_pids=self.pool.pids(),
            active_jobs=self.queue.active_count(),
            queue_limit=self.queue.limit,
            trials_executed=self.scheduler.trials_executed,
            trials_cached=self.scheduler.trials_cached,
            cached=self.cache is not None,
            substrate=SUBSTRATE_VERSION,
        )
