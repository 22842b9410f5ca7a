"""Pluggable sampling strategies: the SPE period counter is one point
in a design space.

The hardware flow of paper Fig. 1 fixes *when* an operation is selected:
a decrementing interval counter with a small random perturbation.  The
continuous-profiling literature (SNIPPETS Snippet 2's
STATELESS_HASH / POISSON_HEADER / PAGE_HASH / HYBRID comparison) shows
that this choice dominates the *bias* of the resulting profile — which
pages look hot, which are never seen at all (dead zones), how far the
achieved rate drifts from the target.  This module makes the selection
rule a pluggable axis of :class:`~repro.spe.sampler.SpeSampler`:

* ``periodic`` — the paper's behaviour, delegated verbatim to
  :func:`sample_positions` (which :mod:`repro.spe.sampler` exports) so
  the default path stays byte-identical (golden-parity pinned),
* ``poisson`` — exponential inter-arrival gaps with mean ``period``
  (a renewal process; memoryless, so periodic code cannot alias),
* ``addr_hash`` — oversampled candidate grid filtered by an XOR-shift
  hash of each candidate's *address* (stateless, self-synchronising,
  but correlated with the data layout),
* ``page_hash`` — the same filter over the candidate's 64 KiB *page*,
  which concentrates samples on a fixed page subset (cheap, cache
  friendly, and maximally biased: unselected pages become dead zones),
* ``hybrid`` — Poisson timing at half the period thinned by a 1-in-2
  page hash (rate-accurate timing, partial page bias).

Strategies are selected by name via ``SpeConfig(strategy=...)``; the
default ``None`` means ``periodic`` and is excluded from canonical cache
keys (``__cache_optional__``), so every pre-zoo spec hash and cached
trial survives.  ``repro.scenarios``' ``sampling_accuracy`` kind scores
all of them against an exhaustive ground-truth pass
(:mod:`repro.analysis.sampling`).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Protocol

import numpy as np

from repro.errors import SpeError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.spe.sampler import OpSource

__all__ = [
    "HASH_OVERSAMPLE",
    "PAGE_SHIFT",
    "AddrHashStrategy",
    "HybridStrategy",
    "PageHashStrategy",
    "PeriodicStrategy",
    "PoissonStrategy",
    "STRATEGIES",
    "STRATEGY_NAMES",
    "SamplingStrategy",
    "check_period",
    "get_strategy",
    "sample_positions",
    "xorshift_hash",
]

#: Page shift of the hash-filtered strategies: 64 KiB pages, matching the
#: Altra presets' page size (and therefore the placement engine's pages).
PAGE_SHIFT = 16

#: Candidate oversampling factor of the hash-filtered strategies: they
#: examine one op every ``period // HASH_OVERSAMPLE`` and keep the
#: 1-in-``HASH_OVERSAMPLE`` whose hash lands in the accept class, so the
#: expected rate matches the target period.
HASH_OVERSAMPLE = 8


def check_period(period: int) -> None:
    """Validate a sampling period; one error message for every call site.

    ``sampler.py`` and each strategy raise the identical
    ``SpeError(f"sampling period must be positive, got {period}")``.
    """
    if period <= 0:
        raise SpeError(f"sampling period must be positive, got {period}")


def xorshift_hash(values: np.ndarray) -> np.ndarray:
    """Stateless XOR-shift/multiply avalanche over uint64 values.

    The splitmix64 finaliser: every input bit influences every output
    bit, so taking ``% k`` of the result partitions addresses (or pages)
    into pseudo-random equivalence classes.  Deterministic — hash
    strategies consume no RNG state for the selection itself.
    """
    x = np.asarray(values, dtype=np.uint64).copy()
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xFF51AFD7ED558CCD)
    x ^= x >> np.uint64(33)
    x *= np.uint64(0xC4CEB9FE1A85EC53)
    x ^= x >> np.uint64(33)
    return x


class SamplingStrategy(Protocol):
    """Selection rule: which op indices of a stream become SPE samples.

    Implementations draw strictly increasing positions in
    ``[0, n_ops)`` and return the carry residue for the next stream (the
    hardware counter never resets between phases, so a positive residue
    must round-trip through the next call's ``carry``).
    """

    #: registry name (``SpeConfig.strategy`` value)
    name: str

    def sample(
        self,
        source: "OpSource",
        period: int,
        jitter: bool,
        rng: np.random.Generator,
        carry: int | None = None,
    ) -> tuple[np.ndarray, int]:
        """(selected op indices int64, residue to carry) for one stream."""
        ...

    def page_sample_weight(self, page_addrs: np.ndarray) -> np.ndarray:
        """Inverse-probability weight for per-page sample counts.

        ``page_addrs`` are representative addresses (one per page);
        hash-biased strategies oversample their accepted pages by a
        known factor, and this weight undoes it so hotness magnitudes
        stay comparable across strategies (ranking within the sampled
        set is unaffected).
        """
        ...


def _renewal_positions(
    n_ops: int,
    draw,
    est_gap: int,
    carry: int | None,
) -> tuple[np.ndarray, int]:
    """Positions of a renewal process with gap sampler ``draw(k)``, plus
    the residue to carry into the next stream.

    The one chunked top-up skeleton behind :func:`sample_positions`
    (jittered interval counter) and the Poisson-timed strategies;
    ``est_gap`` estimates the mean gap and sizes each chunk.
    """
    if n_ops < 0:
        raise SpeError("n_ops must be >= 0")
    first = int(carry) if carry is not None else int(draw(1)[0])
    if first <= 0:
        raise SpeError(f"carry must be positive, got {first}")
    if n_ops == 0:
        return np.zeros(0, dtype=np.int64), first
    if first > n_ops:
        return np.zeros(0, dtype=np.int64), first - n_ops
    # draw enough gaps to exceed n_ops, then trim; a short draw is
    # topped up chunk by chunk (accumulated in a list and joined once at
    # the end, so the already-drawn prefix is never re-copied and the
    # total grows geometrically instead of quadratically)
    n_est = int((n_ops - first) // max(1, est_gap)) + 2
    head = np.empty(n_est + 1, dtype=np.int64)
    head[0] = 0
    draw(n_est).cumsum(out=head[1:])
    head += first - 1
    chunks = [head]
    last = int(head[-1])
    while last < n_ops - 1:
        more = last + np.cumsum(draw(n_est))
        chunks.append(more)
        last = int(more[-1])
    pos = head if len(chunks) == 1 else np.concatenate(chunks)
    # gaps are never negative, so the positions past the stream are a
    # suffix: one binary search finds where it starts
    cut = int(pos.searchsorted(n_ops))
    residue = int(pos[cut]) - (n_ops - 1) if cut < pos.size else int(draw(1)[0])
    return pos[:cut], residue


def sample_positions(
    n_ops: int,
    period: int,
    jitter: bool,
    rng: np.random.Generator,
    carry: int | None = None,
) -> tuple[np.ndarray, int]:
    """Indices selected by the interval counter, plus the carried counter.

    SPE always perturbs the counter reload slightly — "when the counter
    reaches zero, with some random perturbation added to avoid bias, an
    operation is selected" (paper §II-A) — otherwise periodic code would
    alias with the sampling interval.  The ``jitter`` config bit widens
    that window from the inherent ``period/256`` to ``period/16``.

    ``carry`` is the counter value left over from the previous op stream
    (the hardware counter runs continuously across program phases);
    the second return value is the residue to pass to the next stream.

    The window never exceeds the period, so every reload is at least 1:
    at period 1 every op is selected (and ``integers(0, 1)`` draws no
    random bits).
    """
    check_period(period)
    window = min(period, max(2, period // (16 if jitter else 256)))

    def draw(k: int) -> np.ndarray:
        gaps = rng.integers(0, window, size=k, dtype=np.int64)
        return np.subtract(period, gaps, out=gaps)

    return _renewal_positions(n_ops, draw, period - window, carry)


class PeriodicStrategy:
    """The paper's interval counter: delegates to ``sample_positions``.

    The delegation is total — same function, same RNG call sequence —
    so ``strategy="periodic"`` (and the default ``strategy=None``) is
    byte-identical to the pre-zoo sampler, which the golden-parity
    suite pins.
    """

    name = "periodic"

    def sample(self, source, period, jitter, rng, carry=None):
        """Interval-counter positions via the original implementation."""
        return sample_positions(source.n_ops, period, jitter, rng, carry)

    def page_sample_weight(self, page_addrs):
        """Unbiased across pages: unit weight."""
        return np.ones(np.asarray(page_addrs).shape, dtype=np.float64)


class PoissonStrategy:
    """Exponential inter-arrival gaps with mean ``period``.

    A memoryless renewal process: no period for the program to alias
    with, at the cost of a heavier gap tail (occasional long blind
    stretches).  ``jitter`` is ignored — the process is inherently
    jittered.
    """

    name = "poisson"

    def sample(self, source, period, jitter, rng, carry=None):
        """Poisson-process positions (exponential gaps, clamped >= 1)."""
        check_period(period)

        def draw(k: int) -> np.ndarray:
            gaps = np.rint(rng.exponential(float(period), size=k))
            return np.maximum(gaps, 1.0).astype(np.int64)

        return _renewal_positions(source.n_ops, draw, period, carry)

    def page_sample_weight(self, page_addrs):
        """Unbiased across pages: unit weight."""
        return np.ones(np.asarray(page_addrs).shape, dtype=np.float64)


class _HashFilterStrategy:
    """Shared skeleton of the hash-filtered strategies.

    Candidates sit on an arithmetic grid every
    ``max(1, period // HASH_OVERSAMPLE)`` ops (phase-continuous via the
    carry residue); a candidate is kept iff the XOR-shift hash of its
    key (address or page) falls in the accept class.  Selection is
    RNG-free, so positions are exactly chunking-invariant on
    deterministic sources — splitting a stream at any boundary yields
    the same global positions.
    """

    #: right-shift applied to the address before hashing
    key_shift = 0

    def sample(self, source, period, jitter, rng, carry=None):
        """Hash-filtered candidate-grid positions (RNG-free selection)."""
        check_period(period)
        n_ops = source.n_ops
        if n_ops < 0:
            raise SpeError("n_ops must be >= 0")
        gap = max(1, period // HASH_OVERSAMPLE)
        first = int(carry) if carry is not None else gap
        if first <= 0:
            raise SpeError(f"carry must be positive, got {first}")
        if n_ops == 0:
            return np.zeros(0, dtype=np.int64), first
        if first > n_ops:
            return np.zeros(0, dtype=np.int64), first - n_ops
        cand = np.arange(first - 1, n_ops, gap, dtype=np.int64)
        residue = int(cand[-1]) + gap - (n_ops - 1)
        _, addrs = source.ops_at(cand, rng)
        keys = np.asarray(addrs, dtype=np.uint64) >> np.uint64(self.key_shift)
        keep = xorshift_hash(keys) % np.uint64(HASH_OVERSAMPLE) == 0
        return cand[keep], residue

    def page_sample_weight(self, page_addrs):
        """1/HASH_OVERSAMPLE on hash-accepted pages, 1 elsewhere.

        Accepted keys are examined at ``HASH_OVERSAMPLE`` times the
        target rate; rejected pages got whatever samples slipped through
        at other key values (for ``addr_hash``, sub-page keys mean every
        page usually retains some coverage).
        """
        keys = np.asarray(page_addrs, dtype=np.uint64) >> np.uint64(self.key_shift)
        accepted = xorshift_hash(keys) % np.uint64(HASH_OVERSAMPLE) == 0
        return np.where(accepted, 1.0 / HASH_OVERSAMPLE, 1.0)


class AddrHashStrategy(_HashFilterStrategy):
    """Stateless address-hash filter over an oversampled candidate grid.

    Keys are raw virtual addresses: within a page, different cache lines
    land in different hash classes, so page-level coverage degrades
    gracefully while individual addresses are sampled all-or-nothing.
    """

    name = "addr_hash"
    key_shift = 0


class PageHashStrategy(_HashFilterStrategy):
    """Page-hash filter: one accept/reject decision per 64 KiB page.

    The maximally biased scheme — pages outside the accept class are
    *never* sampled (dead zones by construction), while accepted pages
    are oversampled by ``HASH_OVERSAMPLE``.  The bias metrics in
    :mod:`repro.analysis.sampling` exist to quantify exactly this.
    """

    name = "page_hash"
    key_shift = PAGE_SHIFT


class HybridStrategy:
    """Poisson timing at half the period thinned by a 1-in-2 page hash.

    The SNIPPETS Snippet 2 HYBRID shape: unbiased memoryless *timing*
    combined with a partial page filter, trading half the page coverage
    for double the sampling density on the surviving half.
    """

    name = "hybrid"

    def sample(self, source, period, jitter, rng, carry=None):
        """Poisson positions at ``period // 2`` thinned by page hash."""
        check_period(period)
        half = max(1, period // 2)

        def draw(k: int) -> np.ndarray:
            gaps = np.rint(rng.exponential(float(half), size=k))
            return np.maximum(gaps, 1.0).astype(np.int64)

        pos, residue = _renewal_positions(source.n_ops, draw, half, carry)
        if pos.size == 0:
            return pos, residue
        _, addrs = source.ops_at(pos, rng)
        pages = np.asarray(addrs, dtype=np.uint64) >> np.uint64(PAGE_SHIFT)
        keep = xorshift_hash(pages) % np.uint64(2) == 0
        return pos[keep], residue

    def page_sample_weight(self, page_addrs):
        """1/2 on hash-accepted pages (sampled at twice the rate)."""
        pages = np.asarray(page_addrs, dtype=np.uint64) >> np.uint64(PAGE_SHIFT)
        accepted = xorshift_hash(pages) % np.uint64(2) == 0
        return np.where(accepted, 0.5, 1.0)


#: name -> strategy instance; the zoo the scenario layer iterates over.
STRATEGIES: dict[str, SamplingStrategy] = {
    s.name: s
    for s in (
        PeriodicStrategy(),
        PoissonStrategy(),
        AddrHashStrategy(),
        PageHashStrategy(),
        HybridStrategy(),
    )
}

#: registration order: periodic first (the default / paper behaviour).
STRATEGY_NAMES: tuple[str, ...] = tuple(STRATEGIES)


def get_strategy(name: str) -> SamplingStrategy:
    """Resolve a strategy name; unknown names list the known ones."""
    try:
        return STRATEGIES[name]
    except KeyError:
        raise SpeError(
            f"unknown sampling strategy {name!r}; "
            f"known: {', '.join(sorted(STRATEGIES))}"
        ) from None
