"""Byte-exact packet layout tests (paper §IV-A)."""

import numpy as np
import pytest

from repro.errors import PacketDecodeError
from repro.spe import packets as pk
from repro.spe.packets import (
    HDR_TIMESTAMP,
    HDR_VADDR,
    OFF_TS,
    OFF_TS_HDR,
    OFF_VADDR,
    OFF_VADDR_HDR,
    RECORD_DTYPE,
    RECORD_SIZE,
    corrupt_records,
    decode_buffer,
    decode_stream,
    encode_batch,
    encode_records,
)
from repro.spe.records import SampleBatch


def batch(n=8, seed=0):
    rng = np.random.default_rng(seed)
    return SampleBatch(
        pc=rng.integers(1, 1 << 48, n, dtype=np.uint64),
        addr=rng.integers(1, 1 << 48, n, dtype=np.uint64),
        ts=rng.integers(1, 1 << 40, n, dtype=np.uint64),
        level=rng.integers(1, 5, n, dtype=np.uint8),
        kind=rng.integers(1, 3, n, dtype=np.uint8),
        total_lat=rng.integers(1, 1000, n, dtype=np.uint16),
        issue_lat=rng.integers(1, 100, n, dtype=np.uint16),
    )


class TestPaperLayout:
    def test_record_is_64_bytes(self):
        data = encode_batch(batch(3))
        assert len(data) == 3 * 64
        assert RECORD_SIZE == 64

    def test_vaddr_at_offset_31_prefaced_0xb2(self):
        """'the virtual address is stored as a 64-bit value at an offset
        of 31 bytes from the base of the packet' prefaced by 0xb2."""
        b = batch(1)
        raw = encode_batch(b)
        assert OFF_VADDR == 31 and OFF_VADDR_HDR == 30
        assert raw[30] == 0xB2 == HDR_VADDR
        addr = int.from_bytes(raw[31:39], "little")
        assert addr == int(b.addr[0])

    def test_timestamp_at_offset_56_prefaced_0x71(self):
        """'the timestamp is stored as a 64-bit value at the end of the
        packet at a 56-byte offset' prefaced by 0x71."""
        b = batch(1)
        raw = encode_batch(b)
        assert OFF_TS == 56 and OFF_TS_HDR == 55
        assert raw[55] == 0x71 == HDR_TIMESTAMP
        ts = int.from_bytes(raw[56:64], "little")
        assert ts == int(b.ts[0])

    def test_timestamp_ends_record(self):
        assert OFF_TS + 8 == RECORD_SIZE


class TestRoundTrip:
    def test_identity(self):
        b = batch(100)
        got, stats = decode_buffer(encode_batch(b))
        assert stats.n_valid == 100
        assert stats.n_skipped == 0
        for col in SampleBatch._COLUMNS:
            assert (getattr(got, col) == getattr(b, col)).all(), col

    def test_empty(self):
        got, stats = decode_buffer(b"")
        assert len(got) == 0
        assert stats.n_records == 0

    def test_trailing_partial_record_counted(self):
        raw = encode_batch(batch(2)) + b"\x00" * 10
        got, stats = decode_buffer(raw)
        assert stats.trailing_bytes == 10
        assert len(got) == 2


class TestSkipInvalid:
    """NMO skips packets with bad prefaces or zero addr/ts (§IV-A)."""

    def test_corrupted_preface_skipped(self):
        raw = corrupt_records(encode_batch(batch(10)), [3, 7])
        got, stats = decode_buffer(raw)
        assert stats.n_skipped == 2
        assert len(got) == 8

    def test_zero_address_skipped(self):
        b = batch(4)
        b.addr[1] = 0
        got, stats = decode_buffer(encode_batch(b))
        assert stats.n_skipped == 1
        assert len(got) == 3

    def test_zero_timestamp_skipped(self):
        b = batch(4)
        b.ts[2] = 0
        got, stats = decode_buffer(encode_batch(b))
        assert stats.n_skipped == 1

    def test_strict_mode_raises_with_detail(self):
        raw = corrupt_records(encode_batch(batch(5)), [2])
        with pytest.raises(PacketDecodeError) as e:
            decode_buffer(raw, strict=True)
        assert "record 2" in str(e.value)

    def test_corrupt_out_of_range(self):
        with pytest.raises(PacketDecodeError):
            corrupt_records(encode_batch(batch(2)), [5])


def _corrupt_records_scalar(data, indices, rng=None):
    """The pre-vectorisation reference loop, kept for equivalence checks."""
    raw = bytearray(data)
    for i in indices:
        base = i * RECORD_SIZE
        raw[base + OFF_VADDR_HDR] = 0x00
        if rng is not None and rng.random() < 0.5:
            raw[base + OFF_TS_HDR] = 0x00
    return bytes(raw)


class TestCorruptRecordsVectorised:
    """The NumPy fast path must match the scalar loop byte for byte."""

    def test_matches_scalar_reference(self):
        data = encode_batch(batch(64, seed=3))
        idx = [0, 5, 5, 17, 63]  # duplicates allowed
        assert corrupt_records(data, idx) == _corrupt_records_scalar(data, idx)

    def test_rng_draw_sequence_matches_scalar(self):
        # one uniform draw per index, in index order: vectorised
        # rng.random(n) consumes the same stream as n scalar calls
        data = encode_batch(batch(32, seed=4))
        idx = list(range(0, 32, 3))
        vec = corrupt_records(data, idx, rng=np.random.default_rng(11))
        ref = _corrupt_records_scalar(data, idx, rng=np.random.default_rng(11))
        assert vec == ref

    def test_empty_indices_is_identity(self):
        data = encode_batch(batch(4))
        assert corrupt_records(data, []) == data

    def test_numpy_index_array_accepted(self):
        data = encode_batch(batch(8))
        got = corrupt_records(data, np.array([1, 6]))
        _, stats = decode_buffer(got)
        assert stats.n_skipped == 2

    def test_negative_index_rejected_up_front(self):
        # the scalar loop silently wrote near the buffer end for
        # negative indices; now every index is validated before any write
        data = encode_batch(batch(4))
        with pytest.raises(PacketDecodeError):
            corrupt_records(data, [1, -1])
        with pytest.raises(PacketDecodeError) as e:
            corrupt_records(data, [-2])
        assert "-2" in str(e.value)

    def test_mixed_valid_and_invalid_indices_rejected(self):
        # validation runs before any write: a bad index anywhere in the
        # list must raise even when other indices are in range
        data = encode_batch(batch(4))
        with pytest.raises(PacketDecodeError):
            corrupt_records(data, [0, 9])

    def test_large_batch_round_trip(self):
        n = 5000
        data = encode_batch(batch(n, seed=9))
        idx = np.arange(0, n, 7)
        got, stats = decode_buffer(corrupt_records(data, idx))
        assert stats.n_skipped == len(idx)
        assert len(got) == n - len(idx)

    def test_garbage_buffer_fully_skipped(self):
        raw = bytes(range(256))  # 4 records of garbage
        got, stats = decode_buffer(raw)
        assert stats.n_valid == 0
        assert stats.n_skipped == 4
        assert len(got) == 0


# -- the byte-slice codec that RECORD_DTYPE replaced, kept as the oracle ----


def _put_u64(mat, off, vals):
    mat[:, off : off + 8] = (
        np.ascontiguousarray(vals, dtype="<u8").view(np.uint8).reshape(-1, 8)
    )


def _get_u64(mat, off):
    return np.ascontiguousarray(mat[:, off : off + 8]).view("<u8").reshape(-1)


def _put_u16(mat, off, vals):
    mat[:, off : off + 2] = (
        np.ascontiguousarray(vals, dtype="<u2").view(np.uint8).reshape(-1, 2)
    )


def _get_u16(mat, off):
    return np.ascontiguousarray(mat[:, off : off + 2]).view("<u2").reshape(-1)


def oracle_encode(b):
    mat = np.zeros((len(b), RECORD_SIZE), dtype=np.uint8)
    if len(b) == 0:
        return mat
    mat[:, pk.OFF_OP_TYPE_HDR] = pk.HDR_OP_TYPE
    mat[:, pk.OFF_OP_TYPE] = b.kind
    mat[:, pk.OFF_EVENTS_HDR] = pk.HDR_EVENTS
    events = (1 + ((b.level == 1).astype(np.uint16) << 1)).astype(np.uint16)
    _put_u16(mat, pk.OFF_EVENTS, events)
    mat[:, pk.OFF_LAT_TOTAL_HDR] = pk.HDR_LAT_TOTAL
    _put_u16(mat, pk.OFF_LAT_TOTAL, b.total_lat)
    mat[:, pk.OFF_LAT_ISSUE_HDR] = pk.HDR_LAT_ISSUE
    _put_u16(mat, pk.OFF_LAT_ISSUE, b.issue_lat)
    mat[:, pk.OFF_SOURCE_HDR] = pk.HDR_DATA_SOURCE
    mat[:, pk.OFF_SOURCE] = b.level
    mat[:, pk.OFF_PC_HDR] = pk.HDR_PC
    _put_u64(mat, pk.OFF_PC, b.pc)
    mat[:, OFF_VADDR_HDR] = HDR_VADDR
    _put_u64(mat, OFF_VADDR, b.addr)
    mat[:, OFF_TS_HDR] = HDR_TIMESTAMP
    _put_u64(mat, OFF_TS, b.ts)
    return mat


def oracle_decode(data, strict=False):
    raw = (
        np.frombuffer(data, dtype=np.uint8)
        if isinstance(data, (bytes, bytearray, memoryview))
        else np.asarray(data, dtype=np.uint8)
    )
    n_records = raw.shape[0] // RECORD_SIZE
    trailing = int(raw.shape[0] - n_records * RECORD_SIZE)
    mat = raw[: n_records * RECORD_SIZE].reshape(n_records, RECORD_SIZE)
    if n_records == 0:
        return SampleBatch(), pk.DecodeStats(0, 0, 0, trailing)
    addr = _get_u64(mat, OFF_VADDR)
    ts = _get_u64(mat, OFF_TS)
    valid = (
        (mat[:, OFF_VADDR_HDR] == HDR_VADDR)
        & (mat[:, OFF_TS_HDR] == HDR_TIMESTAMP)
        & (addr != 0)
        & (ts != 0)
    )
    n_valid = int(valid.sum())
    if strict and n_valid != n_records:
        bad = int(np.nonzero(~valid)[0][0])
        raise PacketDecodeError(
            f"record {bad}: preface/zero-field validation failed "
            f"(vaddr_hdr=0x{int(mat[bad, OFF_VADDR_HDR]):02x}, "
            f"ts_hdr=0x{int(mat[bad, OFF_TS_HDR]):02x}, "
            f"addr=0x{int(addr[bad]):x}, ts={int(ts[bad])})"
        )
    sel = mat[valid]
    got = SampleBatch(
        pc=_get_u64(sel, pk.OFF_PC),
        addr=addr[valid],
        ts=ts[valid],
        level=sel[:, pk.OFF_SOURCE].copy(),
        kind=sel[:, pk.OFF_OP_TYPE].copy(),
        total_lat=_get_u16(sel, pk.OFF_LAT_TOTAL),
        issue_lat=_get_u16(sel, pk.OFF_LAT_ISSUE),
    )
    return got, pk.DecodeStats(n_records, n_valid, n_records - n_valid, trailing)


def random_batch(rng, n):
    """Full-range columns, with some zero addresses and timestamps."""
    b = SampleBatch(
        pc=rng.integers(0, 1 << 64, n, dtype=np.uint64),
        addr=rng.integers(0, 1 << 64, n, dtype=np.uint64),
        ts=rng.integers(0, 1 << 64, n, dtype=np.uint64),
        level=rng.integers(0, 256, n, dtype=np.uint8),
        kind=rng.integers(0, 256, n, dtype=np.uint8),
        total_lat=rng.integers(0, 1 << 16, n, dtype=np.uint16),
        issue_lat=rng.integers(0, 1 << 16, n, dtype=np.uint16),
    )
    b.level[rng.random(n) < 0.3] = 1  # the events word's L1-hit bit
    b.addr[rng.random(n) < 0.05] = 0
    b.ts[rng.random(n) < 0.05] = 0
    return b


def assert_same_decode(got, want):
    (gb, gs), (wb, ws) = got, want
    assert gs == ws
    for c in SampleBatch._COLUMNS:
        g, w = getattr(gb, c), getattr(wb, c)
        assert g.dtype == w.dtype and np.array_equal(g, w), c


class TestRecordDtype:
    def test_itemsize_is_the_record(self):
        assert RECORD_DTYPE.itemsize == 64 == RECORD_SIZE

    def test_field_offsets_are_the_packet_offsets(self):
        offsets = {
            "kind_hdr": pk.OFF_OP_TYPE_HDR, "kind": pk.OFF_OP_TYPE,
            "events_hdr": pk.OFF_EVENTS_HDR, "events": pk.OFF_EVENTS,
            "total_lat_hdr": pk.OFF_LAT_TOTAL_HDR,
            "total_lat": pk.OFF_LAT_TOTAL,
            "issue_lat_hdr": pk.OFF_LAT_ISSUE_HDR,
            "issue_lat": pk.OFF_LAT_ISSUE,
            "level_hdr": pk.OFF_SOURCE_HDR, "level": pk.OFF_SOURCE,
            "pc_hdr": pk.OFF_PC_HDR, "pc": pk.OFF_PC,
            "addr_hdr": OFF_VADDR_HDR, "addr": OFF_VADDR,
            "ts_hdr": OFF_TS_HDR, "ts": OFF_TS,
        }
        assert set(RECORD_DTYPE.names) == set(offsets)
        for name, off in offsets.items():
            assert RECORD_DTYPE.fields[name][1] == off, name

    def test_every_sample_column_has_a_little_endian_field(self):
        for c in SampleBatch._COLUMNS:
            dt = RECORD_DTYPE.fields[c][0]
            assert dt == np.dtype(SampleBatch._DTYPES[c]).newbyteorder("<"), c


class TestCodecMatchesOracle:
    """The dtype codec is the byte-slice codec, byte for byte."""

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_encode_bytes(self, n, seed):
        b = random_batch(np.random.default_rng(seed), n)
        got = encode_records(b)
        assert got.shape == (n, RECORD_SIZE) and got.dtype == np.uint8
        assert got.tobytes() == oracle_encode(b).tobytes()
        assert encode_batch(b) == oracle_encode(b).tobytes()

    @pytest.mark.parametrize("n", [0, 1, 2, 63, 1000])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_decode_columns_and_stats(self, n, seed):
        data = oracle_encode(random_batch(np.random.default_rng(seed), n))
        data = data.tobytes()  # read-only bytes input
        assert_same_decode(decode_buffer(data), oracle_decode(data))
        arr = np.frombuffer(data + b"\x07" * 9, dtype=np.uint8)
        assert_same_decode(decode_buffer(arr), oracle_decode(arr))

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_decode_corrupted_records(self, seed):
        rng = np.random.default_rng(seed)
        data = oracle_encode(random_batch(rng, 500)).tobytes()
        idx = rng.choice(500, size=60, replace=False)
        bad = corrupt_records(data, idx, rng=np.random.default_rng(seed))
        assert_same_decode(decode_buffer(bad), oracle_decode(bad))

    def test_garbage_bytes(self):
        blob = np.random.default_rng(6).integers(
            0, 256, 64 * 300 + 17, dtype=np.uint8
        )
        blob[30::64][:150] = HDR_VADDR
        blob[55::64][:200] = HDR_TIMESTAMP
        assert_same_decode(decode_buffer(blob), oracle_decode(blob))

    def test_strict_raises_the_same_error(self):
        rng = np.random.default_rng(7)
        data = corrupt_records(
            oracle_encode(random_batch(rng, 40)).tobytes(), [11, 29]
        )
        with pytest.raises(PacketDecodeError) as got:
            decode_buffer(data, strict=True)
        with pytest.raises(PacketDecodeError) as want:
            oracle_decode(data, strict=True)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("size", [1, 7, 63, 65, 127, 1000])
    def test_decode_stream_at_odd_chunk_sizes(self, size):
        rng = np.random.default_rng(size)
        data = corrupt_records(
            oracle_encode(random_batch(rng, 200)).tobytes() + b"\x01" * 5,
            [0, 99, 199],
        )
        chunks = (data[i : i + size] for i in range(0, len(data), size))
        assert_same_decode(decode_stream(chunks), oracle_decode(data))

    @pytest.mark.parametrize("n_bad", [0, 5])  # all valid, and some skipped
    def test_decoded_columns_own_their_memory(self, n_bad):
        data = corrupt_records(encode_batch(batch(300, seed=8)), range(n_bad))
        src = np.frombuffer(data, np.uint8).copy()
        got, stats = decode_buffer(src)
        assert stats.n_skipped == n_bad
        want = {c: getattr(got, c).copy() for c in SampleBatch._COLUMNS}
        src[:] = 0xFF
        for c in SampleBatch._COLUMNS:
            assert np.array_equal(getattr(got, c), want[c]), c
