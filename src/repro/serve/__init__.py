"""Profiling-as-a-service: a persistent Session server with streaming jobs.

``repro run`` pays full process-pool spin-up for every invocation and
exits; this package keeps the whole stack resident.  A
:class:`ProfilingServer` owns one persistent
:class:`~repro.orchestrate.WorkerPool`, one shared
:class:`~repro.orchestrate.ResultCache`, and a bounded
:class:`JobQueue`; clients submit declarative
:class:`~repro.scenarios.ScenarioSpec` payloads over a line-delimited
JSON socket protocol and stream partial results back as trials land.

The moving parts:

:class:`JobQueue` / :class:`Job`
    Job states (``queued``/``running``/``partial``/``done``/``failed``/
    ``cancelled``), priorities, and bounded admission — a full queue
    rejects immediately with a structured ``queue_full`` error.
:class:`Scheduler`
    Feeds every admitted job's trial grid to the persistent pool with
    per-job fairness (round-robin within a priority class, so one huge
    sweep cannot starve small jobs), through the
    :class:`~repro.orchestrate.Dispatcher` core ``Session.run`` also
    runs on: cache hits land without touching workers, identical
    in-flight trials run once across jobs, and a trial lost to two
    worker crashes degrades its job to ``partial``.
:class:`ProfilingServer`
    The TCP front door: ``submit`` / ``status`` / ``results`` /
    ``stream`` / ``cancel`` / ``shutdown`` / ``ping`` over
    :mod:`repro.serve.protocol`, one handler thread per connection.
    :class:`ServerBase` checks every request's protocol version and op
    in one place, whichever transport carried it.
:class:`ClientBase` / :class:`ServerClient`
    The one typed client surface (every op above, structured errors,
    the submit → stream → results loop :meth:`ClientBase.run`), and
    its socket framing; :class:`repro.cluster.HttpClusterClient`
    frames the same surface as HTTP requests.
:class:`RetryPolicy`
    The one dataclass governing every client-side timeout, retry
    budget and full-jitter backoff — injected into both clients and
    the cluster coordinator instead of scattered constants.  Its
    :meth:`RetryPolicy.call` is the one retry loop both clients dial
    through.

Start one from the shell with ``python -m repro serve --port 7123
--workers 4 --cache-dir ~/.cache/repro`` (see ``docs/serving.md``), or
in-process::

    from repro.serve import ProfilingServer, ServerClient

    with ProfilingServer(port=0, workers=2) as srv:
        host, port = srv.address
        with ServerClient(host, port) as client:
            outcome = client.run(my_spec)

The service path is pinned byte-identical to
:meth:`repro.scenarios.Session.run` — same planner, same trial
functions, same cache keys — by ``tests/serve/test_server_e2e.py``.
"""

from repro.serve.client import ClientBase, RunOutcome, ServerClient
from repro.serve.policy import DEFAULT_POLICY, RetryPolicy
from repro.serve.protocol import (
    ERROR_CODES,
    MAX_LINE_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ProtocolError,
    check_protocol,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    read_message,
    write_message,
)
from repro.serve.queue import JOB_STATES, TERMINAL_STATES, Job, JobQueue
from repro.serve.scheduler import Scheduler
from repro.serve.server import ProfilingServer, ServerBase

__all__ = [
    "DEFAULT_POLICY",
    "ClientBase",
    "ERROR_CODES",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "MAX_LINE_BYTES",
    "OPS",
    "PROTOCOL_VERSION",
    "ProfilingServer",
    "ProtocolError",
    "RetryPolicy",
    "RunOutcome",
    "Scheduler",
    "ServerBase",
    "ServerClient",
    "TERMINAL_STATES",
    "check_protocol",
    "decode_message",
    "encode_message",
    "error_response",
    "ok_response",
    "read_message",
    "write_message",
]
