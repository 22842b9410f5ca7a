"""Toggle between the vectorized and scalar-reference SPE record paths.

The hot record path (:func:`repro.spe.sampler.collision_scan` and
:meth:`repro.spe.driver.SpeDriver.feed`) is vectorized; the original
scalar implementations are retained as ``_reference_*`` twins and pinned
byte-identical by the differential suite in
``tests/spe/test_vectorized_parity.py``.  :func:`reference_path` routes
every call inside its scope through the scalar twins, which is how the
golden-parity tests produce the reference side of the comparison without
plumbing a flag through profiler, backends, and sessions.

The toggle is a module flag.  Pool workers are forked, so they inherit
the flag as it stood when their pool opened: a
:class:`~repro.orchestrate.ParallelRunner` opens its pool inside each
``map`` call, so a ``workers > 1`` grid run within the scope takes the
scalar path in every worker.  A long-lived pool forked before the scope
opened (the serve scheduler's) keeps its own setting.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator

_use_reference = False


def reference_active() -> bool:
    """Whether calls should take the retained scalar reference path."""
    return _use_reference


@contextmanager
def reference_path() -> Iterator[None]:
    """Route the SPE record path through the scalar reference twins.

    Affects :func:`~repro.spe.sampler.collision_scan` and
    :meth:`~repro.spe.driver.SpeDriver.feed` for the duration of the
    ``with`` block (reentrant; restores the previous state on exit),
    including in the workers of pools opened within the block.
    """
    global _use_reference
    prev = _use_reference
    _use_reference = True
    try:
        yield
    finally:
        _use_reference = prev
