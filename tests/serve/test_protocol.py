"""The serve wire protocol: framing, limits, request parsing."""

import io

import pytest

from repro.serve import ServerBase, protocol
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    OPS,
    ProtocolError,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    read_message,
    write_message,
)


class TestFraming:
    def test_round_trip(self):
        msg = {"op": "submit", "spec": {"name": "x"}, "priority": 3}
        assert decode_message(encode_message(msg)) == msg

    def test_one_line_per_message(self):
        line = encode_message({"a": 1})
        assert line.endswith(b"\n")
        assert line.count(b"\n") == 1

    def test_canonical_bytes(self):
        # sorted keys + compact separators: identical dicts encode
        # identically regardless of insertion order
        a = encode_message({"x": 1, "y": 2})
        b = encode_message({"y": 2, "x": 1})
        assert a == b

    def test_non_json_rejected(self):
        with pytest.raises(ProtocolError, match="not valid JSON"):
            decode_message(b"not json at all\n")

    def test_non_object_rejected(self):
        with pytest.raises(ProtocolError, match="JSON object"):
            decode_message(b"[1, 2, 3]\n")

    def test_stream_round_trip(self):
        buf = io.BytesIO()
        write_message(buf, {"op": "ping"})
        write_message(buf, {"op": "status", "job_id": "j1"})
        buf.seek(0)
        assert read_message(buf) == {"op": "ping"}
        assert read_message(buf) == {"op": "status", "job_id": "j1"}
        assert read_message(buf) is None  # clean EOF

    def test_blank_line_is_empty_message(self):
        assert read_message(io.BytesIO(b"\n")) == {}

    def test_oversized_line_rejected(self):
        big = b'{"pad": "' + b"x" * MAX_LINE_BYTES + b'"}\n'
        with pytest.raises(ProtocolError, match="exceeds"):
            read_message(io.BytesIO(big))


class TestResponses:
    def test_ok_carries_fields(self):
        r = ok_response(job_id="j1", state="queued")
        assert r["ok"] is True
        assert r["job_id"] == "j1"

    def test_error_shape(self):
        r = error_response("queue_full", "full", active=4, limit=4)
        assert r["ok"] is False
        assert r["error"]["code"] == "queue_full"
        assert r["error"]["reason"] == "full"
        assert r["error"]["active"] == 4

    def test_unknown_code_asserts(self):
        with pytest.raises(AssertionError):
            error_response("no_such_code", "x")


class TestParseRequest:
    """A server splits each request line into its op and params."""

    @pytest.mark.parametrize("op", OPS)
    def test_every_op_parses(self, op):
        server = ServerBase()
        seen = []

        def handler(params, *_wfile):
            seen.append(params)
            return ok_response()

        setattr(server, f"_op_{op}", handler)
        try:
            server.dispatch({"op": op, "job_id": "j"}, io.BytesIO())
        finally:
            server.stop()
        assert seen == [{"job_id": "j"}]


class TestProtocolVersionCheck:
    def test_absent_version_is_accepted(self):
        # pre-versioning clients omit the field; same-version semantics
        assert protocol.check_protocol({"op": "ping"}) is None

    def test_matching_version_is_accepted(self):
        msg = {"op": "ping", "protocol": protocol.PROTOCOL_VERSION}
        assert protocol.check_protocol(msg) is None

    def test_mismatch_is_a_machine_readable_rejection(self):
        skew = protocol.check_protocol({"op": "ping", "protocol": 99})
        assert skew["ok"] is False
        assert skew["error"]["code"] == "protocol_mismatch"
        assert skew["error"]["server"] == protocol.PROTOCOL_VERSION
        assert skew["error"]["client"] == 99
