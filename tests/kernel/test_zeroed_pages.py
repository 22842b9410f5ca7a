"""Session buffers live in anonymous mappings, zero-filled on first touch.

:class:`AuxBuffer` and :class:`RingBuffer` back their bytes with
:func:`repro.kernel.aux_buffer.zeroed_pages`, as the kernel backs a perf
mmap: a byte never written reads as zero, a written byte reads back
across the ring's wrap, and a mapping goes with its buffer.
"""

import gc
from pathlib import Path

import numpy as np
import pytest

from repro.kernel.aux_buffer import AuxBuffer, zeroed_pages
from repro.kernel.records import AuxRecord
from repro.kernel.ring_buffer import RingBuffer
from repro.machine.spec import ampere_altra_max
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.workloads.registry import make_workload

MAPS = Path("/proc/self/maps")


def test_zeroed_pages_are_writable_zero_bytes():
    buf = zeroed_pages(3 * 4096 + 5)
    assert buf.dtype == np.uint8 and buf.shape == (3 * 4096 + 5,)
    assert not buf.any()
    buf[-1] = 7
    assert buf[-1] == 7


class TestAuxBuffer:
    def test_never_written_bytes_read_as_zero(self):
        a = AuxBuffer(n_pages=4, page_size=4096)
        a.write(b"\xff" * 100)
        # the producer moves past bytes it never wrote (as SPE padding)
        a.head = a.size
        zeros = bytes(a.size - 100)
        got = a.read(0, a.size)
        assert got[:100] == b"\xff" * 100 and got[100:] == zeros
        assert a.read_view(100, a.size - 100).tobytes() == zeros
        chunks = a.read_chunks(0, a.size, max_bytes=5000)
        assert b"".join(c.tobytes() for c in chunks) == got

    def test_written_bytes_round_trip_across_the_wrap(self):
        a = AuxBuffer(n_pages=1, page_size=4096)
        a.write(b"a" * 3000)
        a.advance_tail(3000)
        data = bytes(range(256)) * 8  # 2048 bytes: 1096 before the wrap
        assert a.write(data) == len(data)
        assert a.read(3000, len(data)) == data
        assert a.read_view(3000, len(data)).tobytes() == data
        chunks = list(a.read_chunks(3000, len(data)))
        assert [len(c) for c in chunks] == [1096, 952]
        assert b"".join(c.tobytes() for c in chunks) == data


class TestRingBuffer:
    def test_never_written_bytes_read_as_zero(self):
        r = RingBuffer(n_pages=2, page_size=4096)
        assert r.peek_bytes(0, r.size) == bytes(r.size)
        assert r.write_record(AuxRecord(aux_offset=64, aux_size=128, flags=0))
        head = r.meta.data_head
        assert r.peek_bytes(head, r.size - head) == bytes(r.size - head)

    def test_written_bytes_round_trip_across_the_wrap(self):
        r = RingBuffer(n_pages=1, page_size=64)
        assert r.write_records_packed(np.full((1, 40), 0xAA, np.uint8)) == 1
        r.meta.data_tail = r.meta.data_head  # consumed
        data = np.arange(1, 49, dtype=np.uint8).reshape(1, 48)
        assert r.write_records_packed(data) == 1  # bytes 40..88 wrap at 64
        assert r.peek_bytes(40, 48) == data.tobytes()
        assert r.peek_bytes(24, 16) == b"\xaa" * 16  # outlived the wrap


def mappings() -> tuple[int, int]:
    """(lines, mapped bytes) of this process's ``/proc/self/maps``."""
    lines = MAPS.read_text().splitlines()
    spans = (line.split(maxsplit=1)[0].split("-") for line in lines)
    return len(lines), sum(int(b, 16) - int(a, 16) for a, b in spans)


@pytest.mark.skipif(not MAPS.exists(), reason="needs /proc/self/maps")
def test_repeated_profiles_do_not_accumulate_mappings():
    """Every 128-thread profile maps 256 session buffers; once its
    workload is gone, so are they.  Adjacent private anonymous mappings
    merge into one line, so the mapped bytes are checked as well: a
    leaked profile's buffers add ~256 MiB there."""
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=4096)
    machine = ampere_altra_max()
    seen = []
    for _ in range(4):
        w = make_workload("stream", machine, n_threads=128, scale=1 / 4096)
        NmoProfiler(w, settings, seed=0).run()
        del w
        gc.collect()
        seen.append(mappings())
    lines, mapped = zip(*seen)
    assert max(lines[1:]) <= lines[0] + 16, lines
    assert max(mapped[1:]) <= mapped[0] + (32 << 20), mapped
