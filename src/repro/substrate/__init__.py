"""Zero-copy columnar result substrate.

A versioned, self-describing columnar payload (:mod:`.format`), an
object codec pinned byte-identical to pickle (:mod:`.codec`), and a
shared-memory transport (:mod:`.shm`) that ships large worker results
to the pool's parent without pickling them through the pipe:

* :func:`encode` / :func:`decode` — object tree <-> payload bytes, with
  ndarray leaves decoded as zero-copy views,
* :func:`encode_payload` / :func:`decode_payload` — the raw container
  (meta tree + typed column buffers),
* :func:`marshal` / :func:`unmarshal` — ship a result through a
  ``multiprocessing.shared_memory`` segment instead of the pipe,
* :func:`register` — opt a dataclass or enum into the codec.

Pickle remains the fallback: :func:`encode` returns ``None`` for
unsupported objects, corrupt payloads raise
:class:`~repro.errors.SubstrateError`, and callers fall back rather
than fail.  The transport only engages at :data:`SHM_MIN_BYTES`; every
trial row the scenario recipes return is far smaller and takes the
pipe, and the :class:`~repro.orchestrate.ResultCache` stores plain
pickles.  See ``docs/architecture.md`` (result substrate) and
``docs/performance.md`` for layout and measurements.
"""

from __future__ import annotations

from repro.substrate.codec import decode, encodable, encode, register
from repro.substrate.format import (
    ALIGN,
    FORMAT_VERSION,
    MAGIC,
    decode_payload,
    encode_payload,
    is_payload,
    payload_version,
)
from repro.substrate.shm import (
    SHM_MIN_BYTES,
    ShmResult,
    discard,
    marshal,
    unmarshal,
)

__all__ = [
    "ALIGN",
    "FORMAT_VERSION",
    "MAGIC",
    "SHM_MIN_BYTES",
    "ShmResult",
    "decode",
    "decode_payload",
    "discard",
    "encodable",
    "encode",
    "encode_payload",
    "is_payload",
    "marshal",
    "payload_version",
    "register",
    "unmarshal",
]
