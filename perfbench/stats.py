"""Percentiles under a sample-count rule, and failure accounting."""

from __future__ import annotations

import statistics
from collections import Counter
from dataclasses import dataclass, field

#: a reported percentile needs at least this many samples beyond it
MIN_BEYOND = 10


def rank(n: int, p: int) -> int:
    """1-based nearest rank of the ``p``-th percentile (integer ``p``) of ``n``."""
    if n < 1:
        raise ValueError("percentile of an empty sample")
    if not 0 < p <= 100:
        raise ValueError(f"percentile must be in (0, 100], got {p}")
    return max(1, -(-p * n // 100))  # ceil(p * n / 100), exact in integers


def percentile(values: list[float], p: int) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below it."""
    return sorted(values)[rank(len(values), p) - 1]


def beyond(n: int, p: int) -> int:
    """Samples strictly beyond the nearest-rank ``p``-th percentile of ``n``."""
    return n - rank(n, p)


def supported(n: int, p: int) -> bool:
    """Whether ``n`` samples put at least :data:`MIN_BEYOND` beyond ``p``."""
    return n >= 1 and beyond(n, p) >= MIN_BEYOND


def median(values: list[float]) -> float:
    return statistics.median(values)


@dataclass
class Tally:
    """Operations attempted and failed, with the reason for each failure.

    A failure is an operation that raised, timed out, was rejected, or
    returned a wrong result; a wrong result found after the operation
    was counted as attempted turns that operation into a failure.
    Resource leaks found after a workload count as failed operations of
    their own.
    """

    attempted: int = 0
    failed: int = 0
    #: failures that are wrong outputs (what makes a run incorrect)
    wrong_results: int = 0
    reasons: Counter = field(default_factory=Counter)

    def ok(self) -> None:
        self.attempted += 1

    def fail(self, reason: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.reasons[reason] += 1

    def wrong(self, reason: str) -> None:
        """An operation already counted as attempted returned a wrong result."""
        self.failed += 1
        self.wrong_results += 1
        self.reasons[reason] += 1

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.wrong_results += other.wrong_results
        self.reasons.update(other.reasons)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0
