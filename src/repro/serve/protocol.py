"""The serve wire protocol: line-delimited JSON over a stream socket.

Every message — request, response, or stream event — is one JSON
object on one ``\\n``-terminated line, UTF-8 encoded.  Requests carry
an ``op`` from :data:`OPS`; responses carry ``ok`` (and, on failure,
a structured ``error`` object with a machine-readable ``code``), so
clients never have to parse prose to tell a full queue from a bad
spec.  ``stream`` responses are the one multi-line case: an ``ok``
acknowledgement, then ``{"event": "row", ...}`` lines as trials land,
closed by ``{"event": "end", "state": ...}``.

The protocol is deliberately dependency-free (sockets + json) and
versioned via :data:`PROTOCOL_VERSION`, which the server reports in
``ping`` responses.  See ``docs/serving.md`` for the full op table
and job lifecycle.
"""

from __future__ import annotations

import json
from typing import Any, BinaryIO

from repro.errors import ReproError

#: protocol revision reported by ``ping``; bump on wire-format changes
PROTOCOL_VERSION = 1

#: request operations the server understands
OPS = (
    "submit", "status", "results", "stream", "cancel", "shutdown", "ping",
)

#: structured error codes a response's ``error.code`` may carry
ERROR_CODES = (
    "bad_request",    # not JSON / no op / unknown op / missing field
    "bad_spec",       # submit payload failed ScenarioSpec validation
    "queue_full",     # admission rejected: the job queue is at capacity
    "unknown_job",    # status/results/stream/cancel for an unknown id
    "not_finished",   # results requested before the job reached a terminal state
    "job_failed",     # results requested for a failed/cancelled job
    "quota_exceeded",  # admission rejected: the tenant's token bucket is dry
    "protocol_mismatch",  # peer speaks a different PROTOCOL_VERSION
    "connect_failed",  # client could not reach the server (retries exhausted)
)

#: hard per-line ceiling (a full scenario spec is ~1 KiB; 8 MiB leaves
#: room for large streamed result rows while bounding a hostile peer)
MAX_LINE_BYTES = 8 << 20


class ProtocolError(ReproError):
    """A malformed or oversized protocol line."""


def encode_message(obj: dict[str, Any]) -> bytes:
    """One message as its canonical wire line (sorted keys + newline)."""
    return (
        json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def decode_message(line: bytes) -> dict[str, Any]:
    """Parse one wire line back into a message dict."""
    try:
        obj = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ProtocolError(f"message is not valid JSON: {e}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"message must be a JSON object, got {type(obj).__name__}"
        )
    return obj


def write_message(stream: BinaryIO, obj: dict[str, Any]) -> None:
    """Write one message line and flush it onto the wire."""
    stream.write(encode_message(obj))
    stream.flush()


def read_message(stream: BinaryIO) -> dict[str, Any] | None:
    """Read one message line; ``None`` on a clean EOF."""
    line = stream.readline(MAX_LINE_BYTES + 1)
    if not line:
        return None
    if len(line) > MAX_LINE_BYTES:
        raise ProtocolError(
            f"message exceeds {MAX_LINE_BYTES} bytes (unterminated line?)"
        )
    if line.strip() == b"":
        return {}
    return decode_message(line)


def ok_response(**fields: Any) -> dict[str, Any]:
    """A success response carrying ``fields``."""
    return {"ok": True, **fields}


def error_response(code: str, reason: str, **details: Any) -> dict[str, Any]:
    """A failure response with a machine-readable error object."""
    assert code in ERROR_CODES, code
    return {"ok": False, "error": {"code": code, "reason": reason, **details}}


def check_protocol(msg: dict[str, Any]) -> dict[str, Any] | None:
    """Version-gate one request; an error response on skew, else None.

    A request may carry ``protocol`` (an int — the sender's
    :data:`PROTOCOL_VERSION`).  A mismatched peer gets a structured
    ``protocol_mismatch`` rejection naming both versions instead of
    undefined behavior on wire-format skew; requests without the field
    are accepted (version checking is opt-in per request, and
    :meth:`~repro.serve.ClientBase.handshake` opts in).
    """
    peer = msg.get("protocol")
    if peer is None or peer == PROTOCOL_VERSION:
        return None
    return error_response(
        "protocol_mismatch",
        f"peer speaks protocol {peer!r}, this server speaks "
        f"{PROTOCOL_VERSION}",
        server=PROTOCOL_VERSION,
        client=peer,
    )
