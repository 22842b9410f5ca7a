"""Shared-memory result transport for worker -> parent shipping.

Workers historically returned trial results by pickling them through a
``multiprocessing`` pipe: every ndarray column was pickled in the
worker, chunked through a kernel pipe, and unpickled in the parent —
three copies plus codec overhead per trial.  This module ships columnar
results through :class:`multiprocessing.shared_memory.SharedMemory`
arenas instead:

* the **worker** encodes the result with the substrate codec and writes
  the payload into a fresh shared-memory segment (one copy); only a
  tiny :class:`ShmResult` handle (name + size) crosses the pipe,
* the **parent** attaches the segment, decodes the payload
  (zero-copy column views, materialised with one copy so the segment
  can be released immediately), and unlinks it.

Results that are not columnar-encodable, or smaller than
:data:`SHM_MIN_BYTES` (where a pipe round trip is cheaper than two
``shm_open`` syscalls), fall back to the plain pickle path — the
transport is an optimisation, never a requirement.  Parity tests pin
the shared-memory result pickle-byte-identical to the in-process one.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import resource_tracker, shared_memory
from typing import Any

from repro.errors import SubstrateError
from repro.substrate import codec

#: payloads below this many bytes take the pipe (syscall overhead wins)
SHM_MIN_BYTES = 64 * 1024


@dataclass(frozen=True)
class ShmResult:
    """Handle to a columnar payload parked in a shared-memory segment.

    The only thing that crosses the worker->parent pipe when the shm
    transport engages; the parent redeems it with :func:`unmarshal`.
    """

    name: str
    size: int


def marshal(value: Any, min_bytes: int = SHM_MIN_BYTES) -> Any:
    """Worker side: park a large columnar result in shared memory.

    Returns an :class:`ShmResult` handle if the value was shipped via
    shared memory, or the value itself (caller pickles it as before)
    when the value is not columnar-encodable or the payload is too
    small to be worth two syscalls.
    """
    payload = codec.encode(value)
    if payload is None or len(payload) < min_bytes:
        return value
    try:
        seg = shared_memory.SharedMemory(create=True, size=len(payload))
    except OSError:
        return value  # /dev/shm unavailable or full: pipe still works
    try:
        seg.buf[: len(payload)] = payload
        name, size = seg.name, len(payload)
    finally:
        seg.close()
    # the parent owns the segment's lifetime from here: drop the
    # worker-side tracker registration so the worker exiting does not
    # unlink (or warn about) a segment the parent is still reading
    try:
        resource_tracker.unregister(seg._name, "shared_memory")
    except Exception:
        pass
    return ShmResult(name=name, size=size)


def unmarshal(value: Any) -> Any:
    """Parent side: redeem an :class:`ShmResult` into the real object.

    The payload is copied out of the segment once (so the segment can be
    unlinked immediately — no cross-process lifetime bookkeeping), then
    decoded; column views alias that single copy.  Non-handle values
    pass through untouched.
    """
    if not isinstance(value, ShmResult):
        return value
    try:
        seg = shared_memory.SharedMemory(name=value.name)
    except OSError as exc:
        raise SubstrateError(
            f"shared-memory result segment {value.name!r} vanished "
            "before the parent could read it"
        ) from exc
    try:
        payload = bytes(seg.buf[: value.size])
    finally:
        seg.close()
        try:
            seg.unlink()
        except OSError:
            pass
    return codec.decode(payload)


def discard(value: Any) -> None:
    """Release a marshalled result that will never be redeemed (e.g. a
    late event for a task already reported lost)."""
    if not isinstance(value, ShmResult):
        return
    try:
        seg = shared_memory.SharedMemory(name=value.name)
        seg.close()
        seg.unlink()
    except OSError:
        pass
