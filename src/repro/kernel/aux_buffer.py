"""The SPE aux buffer.

ARM SPE does not write samples into the perf data ring; it streams packed
sample records into a separate mmap'd **aux buffer** and the kernel posts
``PERF_RECORD_AUX`` metadata (offset/size/flags) into the data ring each
time the configured ``aux_watermark`` worth of new bytes is available
(paper §II-A and §IV-A).  The size of this buffer is the central knob of
the paper's Fig. 9: it sets the interrupt frequency (time overhead) and
the headroom before samples are dropped (accuracy).

The buffer is byte-accurate: SPE's 64-byte sample records are copied in
and read back out; head/tail are free-running counters like the real ABI.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.errors import BufferError_


def zeroed_pages(size: int) -> np.ndarray:
    """A writable uint8 array of ``size`` zero bytes in a private
    anonymous mapping, as the kernel backs a perf mmap: pages are
    zero-filled on first touch, so a session's buffers cost neither a
    fill nor resident memory for bytes never written, and the mapping
    goes when the array does."""
    return np.frombuffer(mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE), np.uint8)


class AuxBuffer:
    """Byte ring written by the SPE "hardware", drained by the profiler."""

    def __init__(self, n_pages: int, page_size: int, watermark: int | None = None) -> None:
        if n_pages <= 0:
            raise BufferError_(f"aux buffer needs >= 1 page, got {n_pages}")
        if page_size <= 0 or page_size & (page_size - 1):
            raise BufferError_("page size must be a positive power of two")
        self.n_pages = n_pages
        self.page_size = page_size
        self.size = n_pages * page_size
        #: bytes of new data per PERF_RECORD_AUX; defaults to half the buffer
        self.watermark = watermark if watermark is not None else max(1, self.size // 2)
        if not 0 < self.watermark <= self.size:
            raise BufferError_(
                f"watermark {self.watermark} must be in (0, {self.size}]"
            )
        self._buf = zeroed_pages(self.size)
        self.head = 0  # free-running producer offset
        self.tail = 0  # free-running consumer offset
        self._last_signal = 0  # head value at the last watermark crossing
        self.bytes_written = 0
        self.bytes_dropped = 0

    # -- producer (SPE) -----------------------------------------------------------

    @property
    def used(self) -> int:
        return self.head - self.tail

    @property
    def free(self) -> int:
        return self.size - self.used

    def write(self, data: bytes | np.ndarray) -> int:
        """Append sample bytes; returns bytes accepted.

        Accepts ``bytes`` or a uint8 ndarray (views are written without
        an intermediate copy).  Bytes beyond the free space are dropped
        (SPE raises a buffer-full event and discards in hardware);
        callers learn about the loss via the return value and
        :attr:`bytes_dropped`.
        """
        arr = (
            np.frombuffer(data, dtype=np.uint8)
            if isinstance(data, (bytes, bytearray, memoryview))
            else np.asarray(data, dtype=np.uint8)
        )
        n = int(arr.shape[0])
        accept = min(n, self.free)
        if accept:
            pos = self.head % self.size
            first = min(accept, self.size - pos)
            self._buf[pos : pos + first] = arr[:first]
            if first < accept:
                self._buf[: accept - first] = arr[first : accept]
            self.head += accept
            self.bytes_written += accept
        if accept < n:
            self.bytes_dropped += n - accept
        return accept

    @property
    def signal_base(self) -> int:
        """Free-running offset where the next AUX signal would start."""
        return max(self._last_signal, self.tail)

    def pending_signal(self) -> int:
        """Bytes accumulated since the last watermark notification.

        Clamped to the live region ``[tail, head]``: a consumer that
        drains past the last signalled offset (NMO's end-of-run flush
        does) frees those bytes, so they must not be announced again.
        """
        return self.head - max(self._last_signal, self.tail)

    def should_signal(self) -> bool:
        """True when >= watermark new bytes are available to announce."""
        return self.pending_signal() >= self.watermark

    def take_signal(self) -> tuple[int, int]:
        """Consume the pending notification; returns (aux_offset, aux_size).

        These are the fields of the ``PERF_RECORD_AUX`` the kernel posts.
        The signalled region is clamped to ``[tail, head]`` so a drain
        that overtook the last signal never yields an offset into
        already-freed bytes (the follow-up ``read`` would raise).
        """
        offset = max(self._last_signal, self.tail)
        size = self.head - offset
        if size <= 0:
            raise BufferError_("no pending aux data to signal")
        self._last_signal = self.head
        return offset, size

    # -- bulk producer/consumer (epoch-planned driver) ---------------------------

    def stream_paced(
        self,
        data: np.ndarray,
        n_drains: int,
        drain_bytes: int,
        return_signals: bool = True,
    ) -> list[tuple[int, int]]:
        """Append ``data`` as if written incrementally with a consumer
        fully draining ``drain_bytes`` at each of ``n_drains`` paced
        service points (``take_signal`` + ``advance_tail`` each time).

        Byte-identical end state to the incremental write/drain loop as
        long as the paced drains keep the ring from overflowing: no byte
        is ever dropped, every byte ``i`` lands at ``(head + i) % size``,
        and the final buffer content is simply the last ``size`` bytes of
        the stream laid down circularly.  A schedule whose in-flight
        occupancy would exceed the buffer (where the incremental path
        would start dropping) is rejected with :class:`BufferError_`
        rather than silently corrupting the ring.  Returns the
        ``(aux_offset, aux_size)`` pair of each drain — the fields of the
        ``PERF_RECORD_AUX`` records the kernel would have posted.

        Large schedules should pass ``return_signals=False`` (the list
        is ``[]``): every pair is ``(signal_base + k*drain_bytes,
        drain_bytes)``, so callers posting many signals compute them as
        one ``arange`` instead of paying a Python tuple per drain.
        """
        arr = np.asarray(data, dtype=np.uint8)
        total = int(arr.shape[0])
        base = max(self._last_signal, self.tail)
        drained = n_drains * drain_bytes
        if n_drains < 0:
            raise BufferError_("need n_drains >= 0")
        if n_drains and not 0 < drain_bytes <= self.size:
            raise BufferError_(
                f"paced drain of {drain_bytes} outside (0, {self.size}]"
            )
        if drained > (self.head - base) + total:
            raise BufferError_(
                f"cannot drain {drained} bytes: only "
                f"{self.head - base + total} flow through this stream"
            )
        # peak in-flight occupancy: just before each drain the ring holds
        # the undrained prefix plus one drain's worth; after the last
        # drain it fills monotonically to the final level
        final_used = (self.head + total) - (base + drained if n_drains else self.tail)
        pre_drain_used = (base - self.tail) + drain_bytes if n_drains else 0
        if max(final_used, pre_drain_used) > self.size:
            raise BufferError_(
                f"paced stream would overflow the ring: peak occupancy "
                f"{max(final_used, pre_drain_used)} > size {self.size} "
                f"(the incremental path would drop bytes here)"
            )
        if total:
            start = (self.head + max(0, total - self.size)) % self.size
            last = arr[-self.size :] if total > self.size else arr
            m = last.shape[0]
            first = min(m, self.size - start)
            self._buf[start : start + first] = last[:first]
            if first < m:
                self._buf[: m - first] = last[first:]
            self.head += total
            self.bytes_written += total
        signals = (
            [(base + k * drain_bytes, drain_bytes) for k in range(n_drains)]
            if return_signals
            else []
        )
        if n_drains:
            self._last_signal = base + drained
            self.tail = base + drained
        return signals

    # -- consumer (profiler) ---------------------------------------------------------

    def read(self, offset: int, n: int) -> bytes:
        """Copy ``n`` bytes at free-running ``offset`` (wrapping read)."""
        return self.read_view(offset, n).tobytes()

    def read_view(self, offset: int, n: int) -> np.ndarray:
        """Like :meth:`read` but returns a uint8 ndarray — a copy-free
        view into the ring when the span does not wrap.  The view aliases
        the buffer: decode or copy it before the producer writes again.
        """
        if n < 0:
            raise BufferError_("cannot read negative length")
        if offset < self.tail or offset + n > self.head:
            raise BufferError_(
                f"read [{offset}, {offset + n}) outside live data "
                f"[{self.tail}, {self.head})"
            )
        pos = offset % self.size
        first = min(n, self.size - pos)
        if first == n:
            return self._buf[pos : pos + n]
        return np.concatenate([self._buf[pos:], self._buf[: n - first]])

    def read_chunks(self, offset: int, n: int, max_bytes: int = 1 << 20):
        """Yield ``[offset, offset+n)`` as contiguous zero-copy views.

        The streaming counterpart of :meth:`read_view`: a wrapping span
        never concatenates — the wrap point (and the ``max_bytes`` cap)
        simply ends a chunk, so draining a span costs no allocation
        proportional to its size.  Views alias the ring: decode or copy
        each before the producer writes again.  Feed the chunks to
        :func:`repro.spe.packets.decode_stream` to decode a span without
        materialising it.
        """
        if n < 0:
            raise BufferError_("cannot read negative length")
        if max_bytes <= 0:
            raise BufferError_("chunk size must be positive")
        if offset < self.tail or offset + n > self.head:
            raise BufferError_(
                f"read [{offset}, {offset + n}) outside live data "
                f"[{self.tail}, {self.head})"
            )

        def _chunks(at: int = offset, end: int = offset + n):
            while at < end:
                pos = at % self.size
                take = min(end - at, self.size - pos, max_bytes)
                yield self._buf[pos : pos + take]
                at += take

        return _chunks()

    def advance_tail(self, new_tail: int) -> None:
        """Publish consumption up to ``new_tail`` (frees producer space)."""
        if new_tail < self.tail or new_tail > self.head:
            raise BufferError_(
                f"tail {new_tail} outside [{self.tail}, {self.head}]"
            )
        self.tail = new_tail
