"""Byte-exact SPE sample record encoding and decoding.

SPE emits each sample as a packed sequence of packets; perf exposes them
as 64-byte aligned records (paper §IV-A).  The reproduction uses the
layout constraints the paper documents, which are also the validity rules
NMO applies when decoding:

* the record is exactly 64 bytes,
* the **virtual address** is a 64-bit little-endian value at byte offset
  31, *prefaced* by the header byte ``0xB2`` (at offset 30),
* the **timestamp** is a 64-bit value at byte offset 56 (ending the
  record), prefaced by ``0x71`` (at offset 55),
* a record whose preface bytes are wrong, or whose address or timestamp
  is zero, is *skipped* (sample collision / truncation artefacts).

The remaining fields are laid out in the spirit of the SPE packet
grammar: an operation-type packet at offset 0 (header ``0x49``), an
events packet (``0x52``), latency counter packets (``0x98`` total /
``0x99`` issue), a data-source packet (``0x9A``), and a PC address packet
(header ``0xB0``).  Everything is NumPy-vectorised: a batch encodes to an
``(n, 64)`` uint8 matrix written straight into the aux buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PacketDecodeError
from repro.spe.records import SampleBatch
from repro.substrate.codec import register as _substrate

RECORD_SIZE = 64

# header bytes
HDR_OP_TYPE = 0x49
HDR_EVENTS = 0x52
HDR_LAT_TOTAL = 0x98
HDR_LAT_ISSUE = 0x99
HDR_DATA_SOURCE = 0x9A
HDR_PC = 0xB0
HDR_VADDR = 0xB2   # paper: address preface byte
HDR_TIMESTAMP = 0x71  # paper: timestamp preface byte

# byte offsets within the 64-byte record
OFF_OP_TYPE_HDR = 0
OFF_OP_TYPE = 1
OFF_EVENTS_HDR = 2
OFF_EVENTS = 3          # u16
OFF_LAT_TOTAL_HDR = 8
OFF_LAT_TOTAL = 9       # u16
OFF_LAT_ISSUE_HDR = 11
OFF_LAT_ISSUE = 12      # u16
OFF_SOURCE_HDR = 16
OFF_SOURCE = 17
OFF_PC_HDR = 20
OFF_PC = 21             # u64
OFF_VADDR_HDR = 30      # paper: 0xB2 immediately before the address
OFF_VADDR = 31          # paper: "offset of 31 bytes from the base"
OFF_TS_HDR = 55
OFF_TS = 56             # paper: "56-byte offset from the base"


#: Every field of a record: name, format, byte offset and, for a header
#: byte, its fixed value.  A field that carries a sample takes its
#: :class:`SampleBatch` column's name; ``<column>_hdr`` is the header
#: before it.
_LAYOUT = (
    ("kind_hdr", "u1", OFF_OP_TYPE_HDR, HDR_OP_TYPE),
    ("kind", "u1", OFF_OP_TYPE, None),
    ("events_hdr", "u1", OFF_EVENTS_HDR, HDR_EVENTS),
    ("events", "<u2", OFF_EVENTS, None),
    ("total_lat_hdr", "u1", OFF_LAT_TOTAL_HDR, HDR_LAT_TOTAL),
    ("total_lat", "<u2", OFF_LAT_TOTAL, None),
    ("issue_lat_hdr", "u1", OFF_LAT_ISSUE_HDR, HDR_LAT_ISSUE),
    ("issue_lat", "<u2", OFF_LAT_ISSUE, None),
    ("level_hdr", "u1", OFF_SOURCE_HDR, HDR_DATA_SOURCE),
    ("level", "u1", OFF_SOURCE, None),
    ("pc_hdr", "u1", OFF_PC_HDR, HDR_PC),
    ("pc", "<u8", OFF_PC, None),
    ("addr_hdr", "u1", OFF_VADDR_HDR, HDR_VADDR),
    ("addr", "<u8", OFF_VADDR, None),
    ("ts_hdr", "u1", OFF_TS_HDR, HDR_TIMESTAMP),
    ("ts", "<u8", OFF_TS, None),
)

#: The record layout as one structured dtype: every field of
#: :data:`_LAYOUT` at its offset, little-endian, 64 bytes in all (bytes
#: no field names stay zero).
RECORD_DTYPE = np.dtype({
    "names": [f[0] for f in _LAYOUT],
    "formats": [f[1] for f in _LAYOUT],
    "offsets": [f[2] for f in _LAYOUT],
    "itemsize": RECORD_SIZE,
})


def _blank_record() -> np.ndarray:
    """One record's 64 bytes with every header set and every value zero."""
    rec = np.zeros(1, dtype=RECORD_DTYPE)
    for name, _fmt, _off, hdr in _LAYOUT:
        if hdr is not None:
            rec[name] = hdr
    return rec.view(np.uint8)


_BLANK = _blank_record()


def encode_batch(batch: SampleBatch) -> bytes:
    """Encode a batch into concatenated 64-byte records."""
    return encode_records(batch).tobytes()


def encode_records(batch: SampleBatch) -> np.ndarray:
    """Encode a batch into an ``(n, 64)`` uint8 record matrix.

    Same bytes as :func:`encode_batch` without the ``bytes`` round-trip:
    the driver writes rows (or row ranges) straight into the aux buffer
    and decodes slices of the same matrix, copy-free.  Each row starts
    as the blank record; each field is then filled through
    :data:`RECORD_DTYPE`.
    """
    n = len(batch)
    mat = np.empty((n, RECORD_SIZE), dtype=np.uint8)
    mat[:] = _BLANK
    rec = mat.reshape(-1).view(RECORD_DTYPE)
    for c in SampleBatch._COLUMNS:
        rec[c] = getattr(batch, c)
    # events u16: bit0 retired, bit1 L1-hit convenience flag
    rec["events"] = 1 + ((batch.level == 1).astype(np.uint16) << 1)
    return mat


@_substrate
@dataclass(frozen=True)
class DecodeStats:
    """Bookkeeping from one decode pass."""

    n_records: int        #: whole 64-byte records seen
    n_valid: int          #: records decoded into samples
    n_skipped: int        #: records failing the §IV-A validity rules
    trailing_bytes: int   #: partial record bytes at the end of the buffer


def decode_buffer(
    data: bytes | np.ndarray, strict: bool = False
) -> tuple[SampleBatch, DecodeStats]:
    """Decode concatenated records, skipping invalid ones.

    The default (lenient) mode mirrors NMO: "a packet is skipped from
    processing if either of those bytes is incorrect, or if the timestamp
    or virtual address is 0" (§IV-A).  ``strict=True`` raises on the first
    invalid record, which tests use to pinpoint corruption.
    """
    raw = (
        np.frombuffer(data, dtype=np.uint8)
        if isinstance(data, (bytes, bytearray, memoryview))
        else np.asarray(data, dtype=np.uint8)
    )
    n_records = raw.shape[0] // RECORD_SIZE
    trailing = int(raw.shape[0] - n_records * RECORD_SIZE)
    if n_records == 0:
        return SampleBatch(), DecodeStats(0, 0, 0, trailing)
    rec = np.ascontiguousarray(raw[: n_records * RECORD_SIZE]).view(RECORD_DTYPE)

    addr = rec["addr"]
    ts = rec["ts"]
    valid = (
        (rec["addr_hdr"] == HDR_VADDR)
        & (rec["ts_hdr"] == HDR_TIMESTAMP)
        & (addr != 0)
        & (ts != 0)
    )
    n_valid = int(np.count_nonzero(valid))
    if strict and n_valid != n_records:
        bad = int(np.flatnonzero(~valid)[0])
        raise PacketDecodeError(
            f"record {bad}: preface/zero-field validation failed "
            f"(vaddr_hdr=0x{int(rec['addr_hdr'][bad]):02x}, "
            f"ts_hdr=0x{int(rec['ts_hdr'][bad]):02x}, "
            f"addr=0x{int(addr[bad]):x}, ts={int(ts[bad])})"
        )

    # copy each column out (gathering the valid rows), so no decoded
    # column aliases the source buffer
    rows = None if n_valid == n_records else np.flatnonzero(valid)
    batch = SampleBatch(**{
        c: rec[c].copy() if rows is None else rec[c].take(rows)
        for c in SampleBatch._COLUMNS
    })
    stats = DecodeStats(
        n_records=n_records,
        n_valid=n_valid,
        n_skipped=n_records - n_valid,
        trailing_bytes=trailing,
    )
    return batch, stats


def decode_stream(
    chunks, strict: bool = False
) -> tuple[SampleBatch, DecodeStats]:
    """Decode a record stream delivered as a sequence of byte chunks.

    Chunks need not be record-aligned: partial-record bytes at the end
    of one chunk are carried into the next, so an arbitrarily large aux
    span can be decoded through fixed-size windows (e.g.
    :meth:`~repro.kernel.aux_buffer.AuxBuffer.read_chunks` views) without
    ever materialising the concatenated stream.  Decoding is row-wise,
    so the result is identical to :func:`decode_buffer` over the joined
    bytes: per-chunk batches concatenate and per-chunk stats sum, with
    ``trailing_bytes`` counting the final partial record.  A stream that
    decodes in one piece returns that piece's batch as is (its columns
    are copies already, aliasing no chunk).
    """
    batches: list[SampleBatch] = []
    n_records = n_valid = n_skipped = 0
    carry = np.empty(0, dtype=np.uint8)
    for chunk in chunks:
        arr = (
            np.frombuffer(chunk, dtype=np.uint8)
            if isinstance(chunk, (bytes, bytearray, memoryview))
            else np.asarray(chunk, dtype=np.uint8)
        )
        if carry.size:
            arr = np.concatenate([carry, arr])
        usable = arr.shape[0] - arr.shape[0] % RECORD_SIZE
        if usable:
            got, stats = decode_buffer(arr[:usable], strict=strict)
            batches.append(got)
            n_records += stats.n_records
            n_valid += stats.n_valid
            n_skipped += stats.n_skipped
        # the tail may alias a buffer the producer is about to reuse
        carry = arr[usable:].copy()
    batch = batches[0] if len(batches) == 1 else SampleBatch.concat(batches)
    return batch, DecodeStats(
        n_records=n_records,
        n_valid=n_valid,
        n_skipped=n_skipped,
        trailing_bytes=int(carry.shape[0]),
    )


def corrupt_records(
    data: bytes, indices, rng: np.random.Generator | None = None
) -> bytes:
    """Return a copy with the given records' preface bytes destroyed.

    Used by tests and failure-injection benches to emulate the collision
    artefacts that motivate NMO's skip-invalid decode rule.  Fully
    NumPy-vectorised (one fancy-indexed store per preface field) with
    the indices validated up front, so injecting faults into large
    buffers no longer dominates the benches that do it.
    """
    raw = np.frombuffer(data, dtype=np.uint8).copy()
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size == 0:
        return raw.tobytes()
    bad = (idx < 0) | (idx * RECORD_SIZE + RECORD_SIZE > raw.shape[0])
    if bad.any():
        i = int(idx[bad][0])
        raise PacketDecodeError(f"record index {i} out of range")
    base = idx * RECORD_SIZE
    raw[base + OFF_VADDR_HDR] = 0x00
    if rng is not None:
        # one draw per index, matching the scalar loop's rng consumption
        kill_ts = rng.random(idx.size) < 0.5
        raw[base[kill_ts] + OFF_TS_HDR] = 0x00
    return raw.tobytes()
