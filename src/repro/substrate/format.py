"""The columnar payload container: header + typed column buffers.

One encoded payload is a single contiguous byte string::

    magic "RCOL" | u16 version | u16 reserved | u32 header_len
    | header (UTF-8 JSON)
    | padding to a 64-byte boundary
    | column 0 bytes | padding | column 1 bytes | padding | ...

The JSON header is self-describing: it carries the payload *meta tree*
(the non-array part of the object, produced by
:mod:`repro.substrate.codec`) plus one ``[dtype, shape, offset, nbytes]``
entry per column.  Offsets are absolute and 64-byte aligned, so a
decoder can hand out :func:`numpy.frombuffer` views straight into the
source buffer — decoding a payload from a shared-memory segment costs
one JSON parse, never an array copy (:func:`decode_payload` with
``copy=False``, the default).

The format is versioned: a decoder refuses payloads whose version it
does not understand, and a truncated or corrupt payload raises
:class:`~repro.errors.SubstrateError`.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

from repro.errors import SubstrateError

#: leading magic of every columnar payload
MAGIC = b"RCOL"
#: current (and only) format version
FORMAT_VERSION = 1
#: column buffers start on multiples of this (numpy-friendly alignment)
ALIGN = 64

_PREAMBLE = len(MAGIC) + 2 + 2 + 4  # magic, version, reserved, header_len


def _pad(n: int) -> int:
    """Bytes needed to round ``n`` up to the next :data:`ALIGN` boundary."""
    return (ALIGN - n % ALIGN) % ALIGN


def _render_header(meta: Any, descs: list[list]) -> bytes:
    # NB: no sort_keys — dict insertion order in the meta tree is part
    # of the payload (pickle byte-identity depends on it)
    return json.dumps(
        {"meta": meta, "cols": descs}, separators=(",", ":")
    ).encode("utf-8")


def encode_payload(meta: Any, columns: list[np.ndarray]) -> bytes:
    """Serialise a meta tree plus column arrays into one payload.

    ``meta`` must be JSON-serialisable (the codec guarantees this);
    columns must be numpy arrays of fixed-width dtypes.  Column data is
    written C-contiguous in little-endian byte order.
    """
    bufs: list[np.ndarray] = []
    descs: list[list] = []
    for col in columns:
        arr = np.ascontiguousarray(col)
        if arr.dtype.hasobject:
            raise SubstrateError("object-dtype columns are not encodable")
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        bufs.append(arr)
        descs.append([arr.dtype.str, list(arr.shape), 0, arr.nbytes])

    # offsets are absolute, but they feed back into the header length;
    # iterate to the (immediately reached) fixed point
    while True:
        header = _render_header(meta, descs)
        cols_start = _PREAMBLE + len(header) + _pad(_PREAMBLE + len(header))
        rel, changed = 0, False
        for desc, arr in zip(descs, bufs):
            want = cols_start + rel
            if desc[2] != want:
                desc[2] = want
                changed = True
            rel += arr.nbytes + _pad(arr.nbytes)
        if not changed:
            break

    out = bytearray(cols_start + rel)
    out[: len(MAGIC)] = MAGIC
    out[4:6] = FORMAT_VERSION.to_bytes(2, "little")
    # bytes 6:8 reserved (zero)
    out[8:12] = len(header).to_bytes(4, "little")
    out[_PREAMBLE : _PREAMBLE + len(header)] = header
    for desc, arr in zip(descs, bufs):
        out[desc[2] : desc[2] + arr.nbytes] = arr.tobytes()
    return bytes(out)


def payload_version(buf) -> int:
    """The format version of an encoded payload (validates the magic)."""
    view = memoryview(buf)
    if len(view) < _PREAMBLE or bytes(view[: len(MAGIC)]) != MAGIC:
        raise SubstrateError("not a columnar payload (bad magic)")
    return int.from_bytes(view[4:6], "little")


def is_payload(buf) -> bool:
    """Cheap magic check — True if ``buf`` starts like a payload."""
    try:
        payload_version(buf)
        return True
    except SubstrateError:
        return False


def decode_payload(buf, copy: bool = False) -> tuple[Any, list[np.ndarray]]:
    """Parse a payload back into ``(meta, columns)``.

    With ``copy=False`` (the default) columns are zero-copy views into
    ``buf`` — read-only when the buffer is (an ``mmap`` opened with
    ``ACCESS_READ``, a ``bytes`` object); the views keep the source
    buffer alive.  ``copy=True`` detaches them.

    Truncation or corruption anywhere — short preamble, bad magic,
    unparseable header, column extents past the end of the buffer —
    raises :class:`~repro.errors.SubstrateError`.
    """
    view = memoryview(buf)
    version = payload_version(view)
    if version > FORMAT_VERSION:
        raise SubstrateError(
            f"payload format v{version} is newer than supported "
            f"v{FORMAT_VERSION}"
        )
    header_len = int.from_bytes(view[8:12], "little")
    if _PREAMBLE + header_len > len(view):
        raise SubstrateError("truncated payload: header extends past end")
    try:
        header = json.loads(bytes(view[_PREAMBLE : _PREAMBLE + header_len]))
        meta, descs = header["meta"], header["cols"]
    except (ValueError, KeyError, TypeError) as exc:
        raise SubstrateError(f"corrupt payload header: {exc}") from None
    columns: list[np.ndarray] = []
    try:
        items = [
            (np.dtype(dtype_str), shape, int(offset), int(nbytes))
            for dtype_str, shape, offset, nbytes in descs
        ]
    except (TypeError, ValueError) as exc:
        raise SubstrateError(f"corrupt column descriptor: {exc}") from None
    for dtype, shape, offset, nbytes in items:
        if offset < 0 or offset + nbytes > len(view):
            raise SubstrateError(
                f"truncated payload: column [{offset}, {offset + nbytes}) "
                f"extends past end ({len(view)} bytes)"
            )
        arr = np.frombuffer(view[offset : offset + nbytes], dtype=dtype)
        try:
            arr = arr.reshape(shape)
        except (ValueError, TypeError) as exc:
            raise SubstrateError(f"corrupt column shape: {exc}") from None
        columns.append(arr.copy() if copy else arr)
    return meta, columns
