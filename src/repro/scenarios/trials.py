"""Per-trial simulation recipes (the `how` of one grid point).

Every function here computes exactly one cached unit of work: it takes
a :class:`~repro.orchestrate.runner.TrialSpec` whose ``config`` dict is
the cache key, runs the simulation, and returns a plain pickleable
dict.  All of them are module-level so :class:`functools.partial`
closures over the machine cross the process-pool boundary.

These recipes are the one canonical cache-key path: every front door
(``Session``, the figure commands, the service) runs its trials through
them, and the golden-parity suite pins that the payloads stay
byte-identical.

Workload names resolve through :func:`repro.workloads.registry`, so an
unknown name raises the registry's "known: ..." error everywhere.
"""

from __future__ import annotations

import functools
import sys
from dataclasses import dataclass, field

import numpy as np

from repro.analysis.tiering import tier_usage_rows, tiering_breakdown
from repro.colocation import CoRunnerSpec, run_colocation
from repro.errors import ScenarioError
from repro.machine.spec import GiB, MachineSpec
from repro.machine.tiers import (
    apply_tiering,
    mapped_page_ids,
    page_hotness,
    placement_for,
)
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler, ProfileResult
from repro.orchestrate import TrialSpec
from repro.substrate.codec import register as _substrate
from repro.workloads.registry import make_workload

#: default sampling-study scales per workload (sample counts shrink
#: linearly; shapes are scale-free)
SWEEP_SCALES = {"stream": 1 / 32, "cfd": 1 / 256, "bfs": 0.5}

#: mixed co-runner line-up for the colo scenarios: the bandwidth hog,
#: the two CloudSuite timeline models, then a second hog
COLO_MIX = ("stream", "pagerank", "inmem_analytics", "stream")
#: seconds the CloudSuite timeline models run at scale=1 (PageRank's
#: phase plan); STREAM's iteration count is sized to match
COLO_TIMELINE_SECONDS = 23.6

#: cache-key experiment name per scenario kind (the legacy names, so
#: existing cache entries and the golden-parity suite keep matching)
EXPERIMENT_NAMES = {
    "profile": "profile",
    "period_sweep": "period_sweep",
    "aux_sweep": "fig9_aux_buffer",
    "thread_sweep": "fig10_fig11_threads",
    "colocation": "colo_interference",
    "tiering": "tiering",
    "sampling_accuracy": "sampling_accuracy",
}


@_substrate
@dataclass
class SweepPoint:
    """One measured configuration (averaged over trials)."""

    workload: str
    period: int
    samples_mean: float
    samples_std: float
    samples_trials: list[int]
    accuracy_mean: float
    accuracy_std: float
    overhead_mean: float
    collisions_mean: float
    wakeups_mean: float
    extra: dict = field(default_factory=dict)


def _run_sampling(
    name: str,
    machine: MachineSpec,
    *,
    scale: float,
    period: int,
    n_threads: int = 32,
    aux_mib: int = 1,
    seed: int = 0,
    workload_kwargs: dict | None = None,
) -> ProfileResult:
    w = make_workload(
        name, machine, n_threads=n_threads, scale=scale,
        **(workload_kwargs or {}),
    )
    settings = NmoSettings(
        enable=True,
        mode=NmoMode.SAMPLING,
        period=period,
        auxbufsize_mib=aux_mib,
    )
    return NmoProfiler(w, settings, seed=seed).run()


def period_trial(machine: MachineSpec, spec: TrialSpec) -> dict[str, float]:
    """One period-sweep trial (Figs. 7-8)."""
    cfg = spec.config
    r = _run_sampling(
        cfg["workload"],
        machine,
        scale=cfg["scale"],
        period=cfg["period"],
        n_threads=cfg["n_threads"],
        seed=spec.seed,
    )
    return {
        "samples": float(r.samples_processed),
        "accuracy": float(r.accuracy),
        "overhead": float(r.time_overhead),
        "collisions": float(r.collisions),
        "wakeups": float(r.wakeups),
    }


def aux_buffer_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One aux-buffer-size point (Fig. 9).

    The legacy grid swept STREAM only, so ``workload`` is an optional
    config key (absent means ``stream`` — keeping old cache keys valid).
    """
    cfg = spec.config
    pages = cfg["aux_pages"]
    aux_mib = max(1, pages * machine.page_size // (1 << 20))
    settings = NmoSettings(
        enable=True, mode=NmoMode.SAMPLING, period=cfg["period"],
        auxbufsize_mib=aux_mib,
    )
    w = make_workload(
        cfg.get("workload", "stream"), machine,
        n_threads=cfg["n_threads"], scale=cfg["scale"],
    )
    prof = NmoProfiler(w, settings, seed=spec.seed)
    if settings.aux_pages(machine.page_size) != pages:
        # Table I sizes are MiB-granular; the sweep's sub-MiB points
        # (2-8 pages of 64 KiB) override the page count directly
        from repro.nmo.backends import FixedAuxPagesBackend

        prof.backend = FixedAuxPagesBackend(pages)
    r = prof.run()
    return {
        "aux_pages": pages,
        "accuracy": r.accuracy,
        "overhead": r.time_overhead,
        "samples": r.samples_processed,
        "wakeups": r.wakeups,
        "working": pages >= 4,
    }


def thread_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One thread-count point (Figs. 10-11); ``workload`` optional as
    in :func:`aux_buffer_trial`."""
    cfg = spec.config
    r = _run_sampling(
        cfg.get("workload", "stream"), machine,
        scale=cfg["scale"], period=cfg["period"],
        n_threads=cfg["threads"], seed=spec.seed,
    )
    return {
        "threads": cfg["threads"],
        "accuracy": r.accuracy,
        "overhead": r.time_overhead,
        "collisions": r.collisions,
        "throttle_events": r.throttle_events,
        "throttled_samples": r.throttled_samples,
        "samples": r.samples_processed,
        "wakeups": r.wakeups,
    }


def profile_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One plain profile run: a single workload under full settings."""
    cfg = spec.config
    settings = NmoSettings.from_env(cfg["settings"])
    w = make_workload(
        cfg["workload"], machine,
        n_threads=cfg["n_threads"], scale=cfg["scale"],
        **cfg.get("kwargs", {}),
    )
    r = NmoProfiler(w, settings, seed=spec.seed).run()
    return {
        "samples": float(r.samples_processed),
        "accuracy": float(r.accuracy),
        "overhead": float(r.time_overhead),
        "collisions": float(r.collisions),
        "wakeups": float(r.wakeups),
    }


# --------------------------------------------------------------------------
# Tiered memory
# --------------------------------------------------------------------------

def tiering_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One (policy, far-ratio) point of a tiering scenario.

    Builds the workload, derives its page→tier placement (running an
    SPE pilot profile first for the ``hotness`` policy — the paper's
    profile-then-place loop), re-times the phases for the placement,
    profiles the tiered run, and returns the per-tier breakdown plus
    the placement-induced slowdown against the all-local baseline.
    """
    cfg = spec.config
    policy, far_ratio = cfg["policy"], float(cfg["far_ratio"])
    if machine.tiers is None:
        # a Session machine override can bypass the spec's preset check;
        # fail before any profiling rather than mid-trial in the analysis
        raise ScenarioError(
            f"tiering trials need a tiered machine; {machine.name!r} "
            "declares no memory tiers"
        )
    n_tiers = len(machine.tiers)

    def build():
        return make_workload(
            cfg["workload"], machine,
            n_threads=cfg["n_threads"], scale=cfg["scale"],
        )

    hotness = None
    if policy == "hotness" and far_ratio > 0.0:
        # pilot: profile on the naive interleave placement at the same
        # ratio; its per-page sample counts rank pages for the real run.
        # At far_ratio 0 every page is near regardless of hotness, so
        # the pilot would be pure waste and is skipped (hotness stays
        # None; the all-zero-score placement below is identical).
        pilot = build()
        pilot_placement = placement_for(
            pilot.process.address_space, n_tiers, "interleave", far_ratio
        )
        pilot.attach_tiering(pilot_placement)
        apply_tiering(pilot, pilot_placement)
        pilot_result = NmoProfiler(
            pilot,
            NmoSettings(
                enable=True, mode=NmoMode.SAMPLING,
                period=cfg["pilot_period"],
            ),
            seed=spec.seed,
        ).run()
        hotness = page_hotness(
            pilot.process.address_space, pilot_result.batch.addr
        )

    w = build()
    flat_seconds = w.baseline_seconds()
    if policy == "hotness" and hotness is None:
        # far_ratio 0, pilot skipped: all-zero scores place every page
        # near, exactly what any score vector would have produced
        hotness = np.zeros(
            len(mapped_page_ids(w.process.address_space)), dtype=np.int64
        )
    placement = placement_for(
        w.process.address_space, n_tiers, policy, far_ratio, hotness=hotness
    )
    w.attach_tiering(placement)
    # the pilot's hotness also weights the re-timing: a placement that
    # fits the hot pages near stretches (almost) nothing
    apply_tiering(w, placement, hotness=hotness)
    tiered_seconds = w.baseline_seconds()
    settings = NmoSettings(
        enable=True, mode=NmoMode.SAMPLING, period=cfg["period"]
    )
    r = NmoProfiler(w, settings, seed=spec.seed).run()
    tiers = tier_usage_rows(tiering_breakdown(r, machine, placement))
    return {
        "policy": policy,
        "far_ratio": far_ratio,
        "slowdown": float(tiered_seconds / flat_seconds),
        "accuracy": float(r.accuracy),
        "overhead": float(r.time_overhead),
        "collisions": int(r.collisions),
        "samples": int(r.samples_processed),
        "wakeups": int(r.wakeups),
        "tiers": tiers,
    }


# --------------------------------------------------------------------------
# Sampling accuracy
# --------------------------------------------------------------------------

@functools.lru_cache(maxsize=4)
def ground_truth(
    workload: str, n_threads: int, scale: float, machine: MachineSpec
) -> np.ndarray:
    """Exhaustive per-page access counts of one workload (read-only).

    Memoised per process: every (strategy, period) trial of a
    sampling_accuracy scenario scores against the same counts, which
    depend only on the arguments (the whole machine, not its name), so
    each process computes them once per workload.
    """
    from repro.analysis import sampling

    w = make_workload(workload, machine, n_threads=n_threads, scale=scale)
    truth = sampling.exhaustive_page_hotness(w)
    truth.setflags(write=False)
    return truth


def sampling_accuracy_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One (strategy, period) point of a sampling_accuracy scenario.

    Takes the workload's exhaustive ground truth (:func:`ground_truth`),
    profiles the same workload with the named sampling strategy (the
    strategy rides on the backend's :class:`~repro.spe.config.SpeConfig`,
    not on :class:`~repro.nmo.env.NmoSettings`, so settings-based cache
    keys are untouched), and scores the sampled per-page hotness with
    the :mod:`repro.analysis.sampling` bias metrics.
    """
    import dataclasses as _dc

    from repro.analysis.sampling import score_sampling

    cfg = spec.config
    strategy = cfg["strategy"]
    w = make_workload(
        cfg["workload"], machine,
        n_threads=cfg["n_threads"], scale=cfg["scale"],
    )
    truth = ground_truth(cfg["workload"], cfg["n_threads"], cfg["scale"], machine)
    settings = NmoSettings(
        enable=True, mode=NmoMode.SAMPLING, period=cfg["period"]
    )
    prof = NmoProfiler(w, settings, seed=spec.seed)
    prof.backend.config = _dc.replace(prof.backend.config, strategy=strategy)
    r = prof.run()
    est = page_hotness(w.process.address_space, r.batch.addr)
    bias = score_sampling(
        truth,
        est,
        samples=r.samples_processed,
        mem_counted=r.mem_counted,
        period=cfg["period"],
        near_fraction=float(cfg["near_fraction"]),
    )
    return {
        "strategy": strategy,
        "period": int(cfg["period"]),
        "samples": int(r.samples_processed),
        "accuracy": float(r.accuracy),
        "overhead": float(r.time_overhead),
        "collisions": int(r.collisions),
        **bias.as_row(),
    }


# --------------------------------------------------------------------------
# Co-location
# --------------------------------------------------------------------------

def colo_scenarios(max_corunners: int = 4) -> list[tuple[str, ...]]:
    """The co-runner line-ups swept by a colocation scenario.

    For each co-runner count 1..N: a homogeneous all-STREAM scenario
    (worst-case channel pressure) and, from two runners up, the mixed
    STREAM / PageRank / In-memory Analytics pairing (cycling through
    :data:`COLO_MIX` beyond four runners, so every count yields a
    distinct scenario).
    """
    if max_corunners < 1:
        raise ValueError("max_corunners must be >= 1")
    out: list[tuple[str, ...]] = []
    for n in range(1, max_corunners + 1):
        out.append(("stream",) * n)
        if n >= 2:
            out.append(tuple(COLO_MIX[i % len(COLO_MIX)] for i in range(n)))
    return out


def _stream_iterations(machine: MachineSpec, n_threads: int, scale: float) -> int:
    """Triad iterations that keep STREAM co-resident with the CloudSuite
    timeline models at the given scale (their wall time is
    ``COLO_TIMELINE_SECONDS * scale``; STREAM's scale knob sizes its
    arrays, not its duration, so the iteration count carries it)."""
    probe = make_workload(
        "stream", machine, n_threads=n_threads, scale=1.0, iterations=1
    )
    _phase, t0, t1 = probe.phase_spans()[-1]  # one triad iteration
    iter_s = t1 - t0
    target_s = COLO_TIMELINE_SECONDS * scale
    return max(2, int(round(target_s / iter_s)))


def _colo_runners(
    machine: MachineSpec, names: tuple[str, ...], n_threads: int, scale: float
) -> list[CoRunnerSpec]:
    runners = []
    for name in names:
        if name == "stream":
            runners.append(
                CoRunnerSpec(
                    "stream",
                    n_threads=n_threads,
                    scale=1.0,
                    kwargs={
                        "iterations": _stream_iterations(machine, n_threads, scale)
                    },
                )
            )
        else:
            runners.append(CoRunnerSpec(name, n_threads=n_threads, scale=scale))
    return runners


def colo_trial(machine: MachineSpec, spec: TrialSpec) -> dict:
    """One co-location line-up on the contended channel."""
    cfg = spec.config
    # interned, the names are the very objects the in-process config
    # holds, so the row pickles to the same bytes from every executor
    # (a one-runner line-up's scenario label *is* its runner's name)
    names = tuple(sys.intern(n) for n in cfg["workloads"])
    settings = NmoSettings(
        enable=True, mode=NmoMode.SAMPLING, period=cfg["period"]
    )
    res = run_colocation(
        _colo_runners(machine, names, cfg["n_threads"], cfg["scale"]),
        machine=machine,
        settings=settings,
        seed=spec.seed,
    )
    runners = [
        {
            "workload": r.workload,
            "slowdown": float(r.slowdown),
            "demand_gibs": float(r.demand_bps / GiB),
            "granted_gibs": float(r.granted_bps / GiB),
            "accuracy": float(r.profile.accuracy),
            "overhead": float(r.profile.time_overhead),
            "collisions": int(r.profile.collisions),
            "samples": int(r.profile.samples_processed),
        }
        for r in res.runners
    ]
    return {
        "scenario": "+".join(names),
        "n_corunners": len(names),
        "runners": runners,
        "wall_seconds": float(res.wall_seconds),
        "granted_sum_gibs": float(res.granted_sum_bps() / GiB),
        "usable_gibs": float(res.usable_bandwidth / GiB),
    }


# --------------------------------------------------------------------------
# Aggregation
# --------------------------------------------------------------------------

def aggregate_sweep_points(
    name: str,
    periods: tuple[int, ...],
    trials: int,
    rows: list[dict],
    scale: float,
    n_threads: int,
) -> list[SweepPoint]:
    """Fold per-trial rows (period-major, trial-minor) into SweepPoints."""
    out: list[SweepPoint] = []
    for pi, period in enumerate(periods):
        group = rows[pi * trials : (pi + 1) * trials]
        samples = [r["samples"] for r in group]
        s = np.array(samples, dtype=float)
        a = np.array([r["accuracy"] for r in group])
        out.append(
            SweepPoint(
                workload=name,
                period=period,
                samples_mean=float(s.mean()),
                samples_std=float(s.std(ddof=1)) if trials > 1 else 0.0,
                samples_trials=list(map(int, samples)),
                accuracy_mean=float(a.mean()),
                accuracy_std=float(a.std(ddof=1)) if trials > 1 else 0.0,
                overhead_mean=float(np.mean([r["overhead"] for r in group])),
                collisions_mean=float(np.mean([r["collisions"] for r in group])),
                wakeups_mean=float(np.mean([r["wakeups"] for r in group])),
                extra={"scale": scale, "n_threads": n_threads},
            )
        )
    return out


#: scenario kind -> trial function (all module-level, pool-safe)
TRIAL_FNS = {
    "profile": profile_trial,
    "period_sweep": period_trial,
    "aux_sweep": aux_buffer_trial,
    "thread_sweep": thread_trial,
    "colocation": colo_trial,
    "tiering": tiering_trial,
    "sampling_accuracy": sampling_accuracy_trial,
}
