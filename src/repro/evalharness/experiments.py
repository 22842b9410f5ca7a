"""One entry point per paper table/figure (the per-experiment index).

Every function regenerates the data behind one exhibit of the paper's
evaluation (§V-§VII) on the simulated Ampere Altra Max and returns plain
dict/array results that the benches print and EXPERIMENTS.md records.

The sweep-style exhibits (figs. 7-11, colo) are thin shims over the
declarative scenario layer: each builds its
:class:`~repro.scenarios.ScenarioSpec` preset and runs it through
:class:`~repro.scenarios.Session`, which owns trial planning, the
parallel runner, and the canonical cache-key path.  The golden-parity
suite pins that these shims stay byte-identical to their specs.

Scales: the generators run the workloads' access *structure* at reduced
op counts (locality is evaluated at reference scale, see
``reference_locality``).  Sample counts therefore scale linearly with
``scale`` while accuracies, overheads, and collision *shapes* are
scale-free; each result carries its scale so reports can say so.
"""

from __future__ import annotations

import numpy as np

from repro.machine.spec import GiB, MachineSpec, ampere_altra_max
from repro.nmo.bandwidth import dominant_period_s, summarise_bandwidth
from repro.nmo.capacity import summarise_capacity
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.nmo.regions import RegionProfile
from repro.orchestrate import ResultCache
from repro.scenarios import (  # noqa: F401 — compatibility re-exports
    COLO_MIX,
    COLO_TIMELINE_SECONDS,
    colo_scenarios,
)
from repro.scenarios import (
    FIG7_PERIODS,
    FIG8_PERIODS,
    FIG9_AUX_PAGES,
    FIG10_THREADS,
    SWEEP_SCALES,
    Session,
    SweepPoint,
    colo_interference_spec,
    fig7_spec,
    fig8_spec,
    fig9_spec,
    fig10_spec,
)
from repro.workloads.cfd import CfdWorkload
from repro.workloads.inmem_analytics import InMemoryAnalyticsWorkload
from repro.workloads.pagerank import PageRankWorkload
from repro.workloads.stream import StreamWorkload


# --------------------------------------------------------------------------
# Figures 2 and 3: temporal capacity and bandwidth of the CloudSuite pair
# --------------------------------------------------------------------------

def fig2_capacity(
    machine: MachineSpec | None = None, scale: float = 1.0
) -> dict[str, dict]:
    """Fig. 2: memory capacity over time, PageRank + In-memory Analytics."""
    machine = machine or ampere_altra_max()
    out: dict[str, dict] = {}
    for cls in (InMemoryAnalyticsWorkload, PageRankWorkload):
        w = cls(machine, n_threads=32, scale=scale)
        settings = NmoSettings(enable=True, mode=NmoMode.NONE, track_rss=True)
        r = NmoProfiler(w, settings).run()
        assert r.rss_series is not None
        summary = summarise_capacity(r.rss_series, limit_bytes=256 * GiB)
        out[w.name] = {
            "series": r.rss_series,
            "peak_gib": summary.peak_gib,
            "peak_utilisation": summary.peak_utilisation,
            "saturation_time_s": summary.saturation_time_s,
            "duration_s": w.baseline_seconds(),
            "scale": scale,
        }
    return out


def fig3_bandwidth(
    machine: MachineSpec | None = None, scale: float = 1.0
) -> dict[str, dict]:
    """Fig. 3: memory bandwidth over time for the same two workloads."""
    machine = machine or ampere_altra_max()
    out: dict[str, dict] = {}
    for cls in (InMemoryAnalyticsWorkload, PageRankWorkload):
        w = cls(machine, n_threads=32, scale=scale)
        settings = NmoSettings(enable=True, mode=NmoMode.BANDWIDTH)
        r = NmoProfiler(w, settings).run()
        assert r.bw_series is not None
        summary = summarise_bandwidth(r.bw_series, machine)
        entry: dict = {
            "series": r.bw_series,
            "peak_gibs": summary.peak_gibs,
            "time_of_peak_s": summary.time_of_peak_s,
            "mean_gibs": summary.mean_gibs,
            "duration_s": w.baseline_seconds(),
            "scale": scale,
        }
        if w.name == "inmem_analytics":
            entry["period_s"] = dominant_period_s(r.bw_series)
        out[w.name] = entry
    return out


# --------------------------------------------------------------------------
# Figures 4-6: region profiling scatters
# --------------------------------------------------------------------------

def fig4_stream_regions(
    machine: MachineSpec | None = None,
    n_threads: int = 8,
    period: int = 2048,
    n_elems: int = 1 << 21,
) -> dict:
    """Fig. 4: STREAM triad address scatter, 8 threads, tags a/b/c."""
    machine = machine or ampere_altra_max()
    w = StreamWorkload(machine, n_threads=n_threads, n_elems=n_elems, iterations=5)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)
    r = NmoProfiler(w, settings).run()
    prof = RegionProfile.build(r)
    times, addrs = prof.scatter()
    return {
        "result": r,
        "profile": prof,
        "times": times,
        "addrs": addrs,
        "bands": w.tagged_objects(),
        "triad_spans": r.annotations.spans_for("triad"),
        "stats": prof.stats,
    }


def _cfd_regions(machine, n_threads, period, n_elems) -> dict:
    w = CfdWorkload(
        machine, n_threads=n_threads, n_elems=n_elems, iterations=20
    )
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)
    r = NmoProfiler(w, settings).run()
    prof = RegionProfile.build(r)
    times, addrs = prof.scatter()
    return {
        "result": r,
        "profile": prof,
        "times": times,
        "addrs": addrs,
        "bands": w.tagged_objects(),
        "loop_spans": r.annotations.spans_for("computation loop"),
        "stats": prof.stats,
    }


def fig5_cfd_single_thread(
    machine: MachineSpec | None = None, period: int = 4096,
    n_elems: int = 1 << 17,
) -> dict:
    """Fig. 5: CFD scatter at one thread — a continuous traverse."""
    return _cfd_regions(machine or ampere_altra_max(), 1, period, n_elems)


def fig6_cfd_32_threads(
    machine: MachineSpec | None = None, period: int = 1024,
    n_elems: int = 1 << 17,
) -> dict:
    """Fig. 6: CFD at 32 threads plus the high-resolution zoom window.

    The headline observation: only ``normals`` splits cleanly per thread
    (high split score); the indirectly-gathered ``variables`` does not.
    """
    out = _cfd_regions(machine or ampere_altra_max(), 32, period, n_elems)
    times = out["times"]
    if times.size:
        t0 = float(np.quantile(times, 0.45))
        t1 = float(np.quantile(times, 0.55))
        ht, ha = out["profile"].scatter(t0=t0, t1=t1)
        out["hires"] = {"t0": t0, "t1": t1, "times": ht, "addrs": ha}
    stats = out["stats"]
    out["split_scores"] = {name: s.split_score for name, s in stats.items()}
    return out


# --------------------------------------------------------------------------
# Figures 7-11 + colo: scenario shims (Session owns the machinery)
# --------------------------------------------------------------------------

def fig7_samples_vs_period(
    machine: MachineSpec | None = None,
    periods: tuple[int, ...] = FIG7_PERIODS,
    trials: int = 5,
    workloads: tuple[str, ...] = ("stream", "cfd", "bfs"),
    scale: float | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, list[SweepPoint]]:
    """Fig. 7: samples vs sampling period, five trials."""
    spec = fig7_spec(
        periods=periods, trials=trials, workloads=workloads, scale=scale
    )
    return Session(machine=machine, workers=workers, cache=cache).run(spec).results


def fig8_accuracy_overhead_collisions(
    machine: MachineSpec | None = None,
    periods: tuple[int, ...] = FIG8_PERIODS,
    trials: int = 5,
    workloads: tuple[str, ...] = ("stream", "cfd", "bfs"),
    scale: float | None = None,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> dict[str, list[SweepPoint]]:
    """Fig. 8: accuracy / overhead / collisions vs sampling period."""
    spec = fig8_spec(
        periods=periods, trials=trials, workloads=workloads, scale=scale
    )
    return Session(machine=machine, workers=workers, cache=cache).run(spec).results


def fig9_aux_buffer(
    machine: MachineSpec | None = None,
    aux_pages: tuple[int, ...] = FIG9_AUX_PAGES,
    period: int = 1024,
    scale: float = 0.75,
    n_threads: int = 4,
    seed: int = 0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict]:
    """Fig. 9: overhead and accuracy vs aux buffer size (in 64 KiB pages).

    Defaults trade the paper's exact configuration (32 threads, 1 GiB
    arrays) for one where per-thread sample volume spans several
    watermarks across the page sweep at simulation scale — the loss
    mechanism is per-thread, so the shape is thread-count independent
    (see EXPERIMENTS.md).
    """
    spec = fig9_spec(
        aux_pages=aux_pages, period=period, scale=scale,
        n_threads=n_threads, seed=seed,
    )
    return Session(machine=machine, workers=workers, cache=cache).run(spec).results


def fig10_fig11_threads(
    machine: MachineSpec | None = None,
    thread_counts: tuple[int, ...] = FIG10_THREADS,
    period: int = 4096,
    scale: float = 4.0,
    seed: int = 0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict]:
    """Figs. 10-11: overhead, accuracy, collisions, throttling vs threads."""
    spec = fig10_spec(
        thread_counts=thread_counts, period=period, scale=scale, seed=seed
    )
    return Session(machine=machine, workers=workers, cache=cache).run(spec).results


def colo_interference(
    machine: MachineSpec | None = None,
    max_corunners: int = 4,
    scale: float = 0.02,
    period: int = 16384,
    n_threads: int = 8,
    seed: int = 0,
    workers: int = 1,
    cache: ResultCache | None = None,
) -> list[dict]:
    """Colo: 1-4 co-located processes on the contended DRAM channel.

    A beyond-paper extension of the Fig. 10/11 scaling study: instead of
    one workload widening its thread team, whole processes are
    co-located (each with its own SPE sessions and aux buffers) and the
    shared channel apportions bandwidth between them.  Reports each
    runner's slowdown, bandwidth grant, and profiling quality.
    """
    spec = colo_interference_spec(
        max_corunners=max_corunners, scale=scale, period=period,
        n_threads=n_threads, seed=seed,
    )
    return Session(machine=machine, workers=workers, cache=cache).run(spec).results


# --------------------------------------------------------------------------
# Tables I and II
# --------------------------------------------------------------------------

def table1_env_defaults() -> dict[str, str]:
    """Table I: the supported environment variables and defaults."""
    from repro.nmo.env import TABLE_I_DEFAULTS

    return dict(TABLE_I_DEFAULTS)


def table2_machine_spec(machine: MachineSpec | None = None) -> dict[str, str]:
    """Table II: the hardware specification rows."""
    machine = machine or ampere_altra_max()
    return machine.describe()
