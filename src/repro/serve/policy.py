"""The one retry policy for every client-side network op.

Before this module, timeout and retry behavior was a scatter of
hardcoded constants — a 60-second default request timeout here, a
10-second handshake timeout there, a 5-second cancel, exponential
backoff without jitter or a cap in :meth:`ServerClient.connect`.  One
:class:`RetryPolicy` now travels through
:class:`~repro.serve.ServerClient`,
:class:`~repro.cluster.Coordinator` and
:class:`~repro.cluster.HttpClusterClient`, so a test can tighten every
timeout deterministically by injecting one object, and an operator can
loosen them cluster-wide the same way.

:meth:`RetryPolicy.call` is the one attempt/backoff loop: both clients
dial through it, and an ``OSError`` that outlives every attempt reaches
the caller as the structured ``connect_failed`` error (host, port,
attempts, ``elapsed_s``), never as a hang.

Backoff uses *full jitter*: retry ``k`` sleeps a uniform random
duration in ``[0, min(backoff_cap_s, base_backoff_s * 2**k)]``, which
avoids synchronized retry storms when many clients lose the same
coordinator at once.  The RNG and sleep are injectable so tests assert
exact schedules without wall-clock time.
"""

from __future__ import annotations

import dataclasses
import random
import time
from dataclasses import dataclass
from typing import Any, Callable

__all__ = ["DEFAULT_POLICY", "RetryPolicy"]


@dataclass(frozen=True)
class RetryPolicy:
    """How many times, how long, and how patiently to try a network op.

    One frozen dataclass holds every knob the serving stack's clients
    need: attempt count, backoff shape (base, cap, full jitter), and
    per-op and per-connect socket timeouts.  Derive variants with
    :meth:`replace` — e.g. the membership prober uses
    ``policy.replace(max_attempts=1)`` because its own probe cadence
    *is* the retry loop.
    """

    #: total attempts per operation (>= 1; 1 = fail fast, no retry)
    max_attempts: int = 3
    #: upper bound of the first retry's jittered backoff
    base_backoff_s: float = 0.1
    #: ceiling on any single backoff regardless of attempt number
    backoff_cap_s: float = 2.0
    #: full jitter: sleep U(0, bound) instead of the bound itself
    jitter: bool = True
    #: per-request socket timeout (None = no per-op timeout)
    op_timeout_s: float | None = 60.0
    #: per-TCP-connect ceiling (bounds each dial, not the whole loop)
    connect_timeout_s: float = 5.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.base_backoff_s < 0 or self.backoff_cap_s < 0:
            raise ValueError("backoff durations must be >= 0")
        if self.connect_timeout_s <= 0:
            raise ValueError(
                f"connect_timeout_s must be > 0, got {self.connect_timeout_s}"
            )

    # -- derivation --------------------------------------------------------

    def replace(self, **changes: Any) -> "RetryPolicy":
        """A copy with ``changes`` applied (frozen-dataclass update)."""
        return dataclasses.replace(self, **changes)

    # -- backoff -----------------------------------------------------------

    def backoff_bound(self, retry: int) -> float:
        """The exponential upper bound for retry ``retry`` (0-based)."""
        if self.base_backoff_s <= 0:
            return 0.0
        # a huge max_attempts reaches huge retry counts; clamp the
        # exponent so 2**retry never overflows float conversion
        return min(
            self.backoff_cap_s,
            self.base_backoff_s * (2.0 ** min(retry, 63)),
        )

    def backoff_s(
        self, retry: int, rng: random.Random | None = None
    ) -> float:
        """The actual sleep before retry ``retry``: jittered if enabled."""
        bound = self.backoff_bound(retry)
        if not self.jitter or bound <= 0:
            return bound
        return (rng or random).uniform(0.0, bound)

    # -- execution ---------------------------------------------------------

    def call(
        self,
        fn: Callable[[], Any],
        *,
        rng: random.Random | None = None,
        sleep: Callable[[float], None] | None = None,
    ) -> Any:
        """Run ``fn`` under this policy: at most :attr:`max_attempts` tries.

        An ``OSError`` (refused, reset, timed out) is retried after a
        (jittered) backoff until :attr:`max_attempts` is spent; the last
        one then re-raises.  Any other exception propagates immediately
        — server-side errors are not transient.  ``sleep`` defaults to
        :func:`time.sleep`, looked up at call time.
        """
        sleep = sleep or time.sleep
        for attempt in range(self.max_attempts):
            if attempt:
                sleep(self.backoff_s(attempt - 1, rng))
            try:
                return fn()
            except OSError:
                if attempt + 1 == self.max_attempts:
                    raise


#: the stack-wide default: 3 attempts, 0.1s..2s full-jitter backoff,
#: 60s per op, 5s per connect
DEFAULT_POLICY = RetryPolicy()
