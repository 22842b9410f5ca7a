"""Sampling-bias metrics: score a sampled hotness profile against
exhaustive ground truth.

The ``sampling_accuracy`` scenario kind runs each registered sampling
strategy (:mod:`repro.spe.strategies`) over a workload and compares the
per-page hotness it reports with an **exhaustive** pass that counts
every memory operation of the same op sources.  Four bias axes, all
computed vectorized:

* ``rank_error`` — normalised Spearman-footrule distance between the
  true and estimated hotness *rankings* of the truly-accessed pages
  (0 = identical ordering, 1 = worst possible): the metric the hotness
  placer actually depends on;
* ``miss_ratio_error`` — excess miss ratio of a near-tier placement
  built from the *estimated* ranking over one built from the true
  ranking, evaluated on true access counts (placement regret, >= 0);
* dead zones — ``dead_zone_count`` / ``dead_zone_max_width`` /
  ``dead_access_fraction``: contiguous runs of truly-accessed pages
  the sampler never saw at all (the Continuous-Memory-Profiler bias
  signature of hash-filtered schemes);
* ``rate_deviation`` — relative deviation of the achieved sample count
  from the target ``mem_counted / period`` (the paper's Eq. 1 accuracy,
  as a symmetric error).

Ground truth for phase workloads is exact: the address function is
deterministic per op index, so enumerating every memory op reproduces
the access stream the sampler drew from.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError
from repro.machine.tiers import page_hotness

__all__ = [
    "SamplingBias",
    "align_or_raise",
    "dead_zones",
    "exhaustive_page_hotness",
    "hotness_rank_error",
    "miss_ratio_error",
    "sample_rate_deviation",
    "score_sampling",
]


@dataclass(frozen=True)
class SamplingBias:
    """Bias metrics of one sampled hotness profile vs ground truth."""

    #: normalised Spearman-footrule distance of the hotness rankings
    rank_error: float
    #: excess near-tier miss ratio of the estimated ranking (>= 0)
    miss_ratio_error: float
    #: contiguous runs of accessed-but-never-sampled pages
    dead_zone_count: int
    #: widest dead run, in pages
    dead_zone_max_width: int
    #: fraction of true accesses falling in dead pages
    dead_access_fraction: float
    #: relative deviation of achieved samples from ``mem / period``
    rate_deviation: float

    def as_row(self) -> dict:
        """Flat dict of the metrics (report/JSON friendly)."""
        return {
            "rank_error": self.rank_error,
            "miss_ratio_error": self.miss_ratio_error,
            "dead_zone_count": self.dead_zone_count,
            "dead_zone_max_width": self.dead_zone_max_width,
            "dead_access_fraction": self.dead_access_fraction,
            "rate_deviation": self.rate_deviation,
        }


def align_or_raise(truth: np.ndarray, est: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Validate two allocation-ordered hotness vectors align; cast float."""
    truth = np.asarray(truth, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    if truth.shape != est.shape or truth.ndim != 1:
        raise AnalysisError(
            f"hotness vectors must be equal-length 1-D, "
            f"got {truth.shape} vs {est.shape}"
        )
    return truth, est


def exhaustive_page_hotness(workload, chunk: int = 1 << 20) -> np.ndarray:
    """Ground-truth per-page access counts of every memory op.

    Counts the loads+stores of every phase x thread stream of
    ``workload`` per mapped page (allocation order, aligned with
    :func:`repro.machine.tiers.page_hotness`).  Each op group holds at
    most one memory op (:meth:`~repro.workloads.base.Phase.mem_slots`),
    so the pass walks groups, not ops: every thread's groups of a phase
    in ``chunk``-sized blocks, dropping the groups whose slot falls
    outside the group, with one address-function call per block for all
    threads.  The counts equal those of enumerating every op through
    ``PhaseOpSource.ops_at``.
    """
    if chunk <= 0:
        raise AnalysisError(f"chunk must be positive, got {chunk}")
    aspace = workload.process.address_space
    total = None
    for phase in workload.phases:
        n = phase.n_mem_ops * workload.phase_threads(phase)
        for start in range(0, n, chunk):
            flat = np.arange(start, min(start + chunk, n), dtype=np.int64)
            threads, mem_idx = np.divmod(flat, phase.n_mem_ops)
            has_mem = phase.mem_slots(mem_idx) < phase.group
            addrs = phase.addr_fn(mem_idx[has_mem], threads[has_mem])
            counts = page_hotness(aspace, addrs)
            total = counts if total is None else total + counts
    if total is None:
        return np.zeros(0, dtype=np.int64)
    return total


def _hotness_ranks(scores: np.ndarray) -> np.ndarray:
    """Rank per page, hottest = 0; ties break towards lower indices.

    The same ``argsort(-scores, kind="stable")`` order the hotness
    placer uses, so rank error measures exactly what placement sees.
    """
    order = np.argsort(-scores, kind="stable")
    ranks = np.empty(scores.size, dtype=np.int64)
    ranks[order] = np.arange(scores.size, dtype=np.int64)
    return ranks


def hotness_rank_error(truth: np.ndarray, est: np.ndarray) -> float:
    """Normalised Spearman-footrule distance over truly-accessed pages.

    Restricted to pages with true accesses (cold pages would flood the
    metric with zero-count ties); ``sum |rank_t - rank_e|`` divided by
    its maximum (``n^2 / 2`` for a permutation of n pages), so 0 means
    the estimated ordering is exact and 1 is a full reversal.
    """
    truth, est = align_or_raise(truth, est)
    hot = truth > 0
    n = int(hot.sum())
    if n <= 1:
        return 0.0
    rt = _hotness_ranks(truth[hot])
    re = _hotness_ranks(est[hot])
    max_footrule = n * n / 2.0
    return float(np.abs(rt - re).sum() / max_footrule)


def miss_ratio_error(
    truth: np.ndarray, est: np.ndarray, near_fraction: float = 0.5
) -> float:
    """Placement regret of the estimated ranking (excess miss ratio).

    A near tier holding the top ``near_fraction`` of pages is filled
    twice — once by the true ranking (the oracle), once by the
    estimated one — and both placements are charged with the *true*
    access counts.  The result is the extra fraction of accesses the
    estimated placement sends to far memory; 0 means the sampler's
    ranking places exactly as well as ground truth.
    """
    truth, est = align_or_raise(truth, est)
    if not 0.0 < near_fraction < 1.0:
        raise AnalysisError(
            f"near_fraction must be in (0, 1), got {near_fraction}"
        )
    total = truth.sum()
    if truth.size == 0 or total <= 0:
        return 0.0
    budget = max(1, int(round(near_fraction * truth.size)))
    oracle_near = np.argsort(-truth, kind="stable")[:budget]
    est_near = np.argsort(-est, kind="stable")[:budget]
    miss_oracle = 1.0 - truth[oracle_near].sum() / total
    miss_est = 1.0 - truth[est_near].sum() / total
    return float(max(0.0, miss_est - miss_oracle))


def dead_zones(truth: np.ndarray, est: np.ndarray) -> tuple[int, int, float]:
    """(count, max width, access fraction) of never-sampled page runs.

    A page is *dead* when ground truth accessed it but the sampler
    reported zero samples; consecutive dead pages (allocation order)
    form one zone.  The access fraction weights dead pages by their
    true counts — the share of real traffic the profile is blind to.
    """
    truth, est = align_or_raise(truth, est)
    dead = (truth > 0) & (est == 0)
    if not dead.any():
        return 0, 0, 0.0
    edges = np.diff(np.concatenate(([0], dead.astype(np.int8), [0])))
    starts = np.flatnonzero(edges == 1)
    ends = np.flatnonzero(edges == -1)
    widths = ends - starts
    total = truth.sum()
    frac = float(truth[dead].sum() / total) if total > 0 else 0.0
    return int(starts.size), int(widths.max()), frac


def sample_rate_deviation(samples: int, mem_counted: int, period: int) -> float:
    """Relative deviation of the achieved rate from ``mem / period``.

    The symmetric-error form of the paper's Eq. 1 sampling accuracy:
    ``|samples * period - mem| / mem`` (0 when the strategy hits the
    target rate exactly; 0 by convention when nothing was counted).
    """
    if period <= 0:
        raise AnalysisError(f"period must be positive, got {period}")
    if mem_counted <= 0:
        return 0.0
    return float(abs(samples * period - mem_counted) / mem_counted)


def score_sampling(
    truth: np.ndarray,
    est: np.ndarray,
    *,
    samples: int,
    mem_counted: int,
    period: int,
    near_fraction: float = 0.5,
) -> SamplingBias:
    """All bias metrics of one sampled profile in one call.

    ``truth`` and ``est`` are allocation-ordered per-page hotness
    vectors (:func:`exhaustive_page_hotness` and
    :func:`repro.machine.tiers.page_hotness` respectively); ``samples``
    is the strategy's processed sample count and ``mem_counted`` the
    ground-truth retired loads+stores.
    """
    count, width, frac = dead_zones(truth, est)
    return SamplingBias(
        rank_error=hotness_rank_error(truth, est),
        miss_ratio_error=miss_ratio_error(truth, est, near_fraction),
        dead_zone_count=count,
        dead_zone_max_width=width,
        dead_access_fraction=frac,
        rate_deviation=sample_rate_deviation(samples, mem_counted, period),
    )
