"""The perf mmap ring buffer and its metadata page.

NMO maps ``(N+1)`` pages per event: page 0 is a ``perf_event_mmap_page``
metadata page, pages 1..N the data area written by the kernel and read by
the profiler in a producer/consumer protocol (paper §IV-A).  The metadata
page also carries ``time_zero`` / ``time_shift`` / ``time_mult`` which NMO
uses to convert SPE timestamps into the perf timescale.

``data_head`` and ``aux_head`` are free-running byte counters: readers
take ``head % size`` for the wrap position and publish consumption by
advancing ``data_tail``/``aux_tail``, exactly like the real ABI.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import BufferError_
from repro.kernel.aux_buffer import zeroed_pages
from repro.kernel.records import HEADER_SIZE, LostRecord, Record, parse_record


@dataclass
class MmapMetadataPage:
    """Simulated ``perf_event_mmap_page`` (the fields NMO reads)."""

    data_offset: int = 0
    data_size: int = 0
    data_head: int = 0
    data_tail: int = 0
    aux_offset: int = 0
    aux_size: int = 0
    aux_head: int = 0
    aux_tail: int = 0
    time_zero: int = 0
    time_mult: int = 1
    time_shift: int = 0
    cap_user_time_zero: int = 1


@dataclass
class RingBuffer:
    """Byte-accurate perf data ring of ``n_pages`` pages.

    The producer (simulated kernel) appends serialised records with
    :meth:`write_record`; when there is no room the record is dropped and
    accounted, and a ``PERF_RECORD_LOST`` is emitted once space returns —
    mirroring perf's behaviour under slow consumers.
    """

    n_pages: int
    page_size: int
    meta: MmapMetadataPage = field(default_factory=MmapMetadataPage)

    def __post_init__(self) -> None:
        if self.n_pages <= 0:
            raise BufferError_(f"ring buffer needs >= 1 data page, got {self.n_pages}")
        if self.page_size <= 0 or self.page_size & (self.page_size - 1):
            raise BufferError_("page size must be a positive power of two")
        self.size = self.n_pages * self.page_size
        self._buf = zeroed_pages(self.size)
        self.meta.data_offset = self.page_size
        self.meta.data_size = self.size
        self.records_written = 0
        self.records_lost = 0
        self._pending_lost = 0

    # -- producer side -----------------------------------------------------------

    @property
    def used(self) -> int:
        return self.meta.data_head - self.meta.data_tail

    @property
    def free(self) -> int:
        return self.size - self.used

    def write_record(self, rec: Record) -> bool:
        """Append one record; False (and a lost count) if it did not fit."""
        payload = rec.pack()
        # flush a LOST record first if drops happened earlier
        if self._pending_lost:
            lost = LostRecord(event_id=0, lost=self._pending_lost).pack()
            if len(lost) + len(payload) <= self.free:
                self._write_bytes(lost)
                self._pending_lost = 0
        if len(payload) > self.free:
            self.records_lost += 1
            self._pending_lost += 1
            return False
        self._write_bytes(payload)
        self.records_written += 1
        return True

    def write_records_packed(self, packed: np.ndarray) -> int:
        """Append ``packed`` (an ``(n, rec_size)`` uint8 matrix of
        pre-serialised equal-size records) with the exact semantics of
        ``n`` sequential :meth:`write_record` calls: the pending-LOST
        flush can only succeed on the first write (nothing frees space
        mid-batch), then records fit until ``free`` runs out and every
        later one is dropped and counted.  One wrapped copy instead of a
        Python loop; returns the number of records written.
        """
        packed = np.asarray(packed, dtype=np.uint8)
        n_rec, rec_size = packed.shape
        if n_rec == 0:
            return 0
        if self._pending_lost:
            lost = LostRecord(event_id=0, lost=self._pending_lost).pack()
            if len(lost) + rec_size <= self.free:
                self._write_bytes(lost)
                self._pending_lost = 0
        n_fit = min(n_rec, self.free // rec_size) if rec_size else n_rec
        if n_fit:
            self._write_bytes(packed[:n_fit].reshape(-1))
            self.records_written += n_fit
        dropped = n_rec - n_fit
        if dropped:
            self.records_lost += dropped
            self._pending_lost += dropped
        return n_fit

    def _write_bytes(self, payload: bytes | np.ndarray) -> None:
        arr = (
            np.frombuffer(payload, dtype=np.uint8)
            if isinstance(payload, (bytes, bytearray, memoryview))
            else np.asarray(payload, dtype=np.uint8)
        )
        pos = self.meta.data_head % self.size
        n = int(arr.shape[0])
        first = min(n, self.size - pos)
        self._buf[pos : pos + first] = arr[:first]
        if first < n:
            self._buf[: n - first] = arr[first:]
        self.meta.data_head += n

    # -- consumer side -----------------------------------------------------------

    def peek_bytes(self, offset: int, n: int) -> bytes:
        """Read ``n`` bytes at free-running offset ``offset`` (wrapping)."""
        if n < 0:
            raise BufferError_("cannot read negative length")
        pos = offset % self.size
        first = min(n, self.size - pos)
        out = bytearray(n)
        out[:first] = self._buf[pos : pos + first].tobytes()
        if first < n:
            out[first:] = self._buf[: n - first].tobytes()
        return bytes(out)

    def read_records(self, limit: int | None = None) -> list[Record]:
        """Drain complete records between tail and head, advancing tail."""
        out: list[Record] = []
        while self.meta.data_tail < self.meta.data_head:
            if limit is not None and len(out) >= limit:
                break
            avail = self.meta.data_head - self.meta.data_tail
            if avail < HEADER_SIZE:
                raise BufferError_("torn record header in ring buffer")
            # headers are small; pull a bounded window to parse from
            window = self.peek_bytes(self.meta.data_tail, min(avail, 64))
            rec, size = parse_record(window, 0)
            if size > avail:
                raise BufferError_("torn record body in ring buffer")
            out.append(rec)
            self.meta.data_tail += size
        return out

    @property
    def readable(self) -> bool:
        return self.meta.data_head > self.meta.data_tail
