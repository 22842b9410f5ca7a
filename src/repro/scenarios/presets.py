"""Named scenario presets: the paper exhibits as ScenarioSpec builders.

Each ``*_spec`` function builds the declarative equivalent of one
legacy ``evalharness`` entry point, with the same defaults.
:data:`SCENARIO_PRESETS` is the registry behind
``python -m repro scenarios list`` and lets ``python -m repro run fig8``
resolve a name instead of a JSON file.
"""

from __future__ import annotations

from pathlib import Path
from typing import Callable

from repro.errors import ScenarioError
from repro.nmo.env import NmoMode, NmoSettings
from repro.scenarios.spec import (
    ColocationSpec,
    SamplingSpec,
    ScenarioSpec,
    SweepAxis,
    TieringSpec,
    WorkloadSpec,
)
from repro.spe.strategies import STRATEGY_NAMES

FIG7_PERIODS = (512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072)
FIG8_PERIODS = (1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000)
FIG9_AUX_PAGES = (2, 4, 8, 16, 32, 64, 128, 512, 2048)
FIG10_THREADS = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128)


def _sampling(period: int) -> NmoSettings:
    return NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)


def _period_sweep_spec(
    name: str,
    periods: tuple[int, ...],
    trials: int,
    workloads: tuple[str, ...],
    scale: float | None,
    n_threads: int,
    seed: int,
) -> ScenarioSpec:
    axis = SweepAxis("period", tuple(periods))  # rejects an empty grid
    return ScenarioSpec(
        name=name,
        kind="period_sweep",
        workloads=tuple(
            WorkloadSpec(w, n_threads=n_threads, scale=scale)
            for w in workloads
        ),
        settings=_sampling(axis.values[0]),
        sweep=axis,
        trials=trials,
        seed=seed,
    )


def fig7_spec(
    periods: tuple[int, ...] = FIG7_PERIODS,
    trials: int = 5,
    workloads: tuple[str, ...] = ("stream", "cfd", "bfs"),
    scale: float | None = None,
    n_threads: int = 32,
    seed: int = 0,
) -> ScenarioSpec:
    """Fig. 7: SPE samples vs sampling period, with trials."""
    return _period_sweep_spec(
        "fig7", periods, trials, workloads, scale, n_threads, seed
    )


def fig8_spec(
    periods: tuple[int, ...] = FIG8_PERIODS,
    trials: int = 5,
    workloads: tuple[str, ...] = ("stream", "cfd", "bfs"),
    scale: float | None = None,
    n_threads: int = 32,
    seed: int = 0,
) -> ScenarioSpec:
    """Fig. 8: accuracy/overhead/collisions vs sampling period."""
    return _period_sweep_spec(
        "fig8", periods, trials, workloads, scale, n_threads, seed
    )


def fig9_spec(
    aux_pages: tuple[int, ...] = FIG9_AUX_PAGES,
    period: int = 1024,
    scale: float = 0.75,
    n_threads: int = 4,
    seed: int = 0,
) -> ScenarioSpec:
    """Fig. 9: accuracy/overhead vs aux buffer size (64 KiB pages)."""
    return ScenarioSpec(
        name="fig9",
        kind="aux_sweep",
        workloads=(WorkloadSpec("stream", n_threads=n_threads, scale=scale),),
        settings=_sampling(period),
        sweep=SweepAxis("aux_pages", tuple(aux_pages)),
        seed=seed,
    )


def fig10_spec(
    thread_counts: tuple[int, ...] = FIG10_THREADS,
    period: int = 4096,
    scale: float = 4.0,
    seed: int = 0,
) -> ScenarioSpec:
    """Figs. 10-11: overhead/accuracy/collisions/throttling vs threads."""
    return ScenarioSpec(
        name="fig10_fig11",
        kind="thread_sweep",
        workloads=(WorkloadSpec("stream", scale=scale),),
        settings=_sampling(period),
        sweep=SweepAxis("threads", tuple(thread_counts)),
        seed=seed,
    )


def colo_interference_spec(
    max_corunners: int = 4,
    scale: float = 0.02,
    period: int = 16384,
    n_threads: int = 8,
    seed: int = 0,
) -> ScenarioSpec:
    """Colo: 1-N co-located processes on the contended DRAM channel."""
    return ScenarioSpec(
        name="colo_interference",
        kind="colocation",
        settings=_sampling(period),
        colocation=ColocationSpec(
            max_corunners=max_corunners, n_threads=n_threads, scale=scale
        ),
        seed=seed,
    )


def tiering_sweep_spec(
    workload: str = "stream",
    n_threads: int = 8,
    scale: float = 1 / 32,
    period: int = 4096,
    policies: tuple[str, ...] = ("interleave", "first_touch", "hotness"),
    far_ratios: tuple[float, ...] = (0.0, 0.25, 0.5),
    machine: str = "tiered_altra_max",
    seed: int = 0,
) -> ScenarioSpec:
    """Tiering: placement policies vs far-memory ratio on a tiered machine."""
    return ScenarioSpec(
        name="tiering_sweep",
        kind="tiering",
        workloads=(WorkloadSpec(workload, n_threads=n_threads, scale=scale),),
        settings=_sampling(period),
        machine=machine,
        tiering=TieringSpec(policies=policies, far_ratios=far_ratios),
        seed=seed,
    )


def sampling_zoo_spec(
    workload: str = "stream",
    n_threads: int = 2,
    scale: float = 1 / 1024,
    strategies: tuple[str, ...] = STRATEGY_NAMES,
    periods: tuple[int, ...] = (512, 2048),
    near_fraction: float = 0.5,
    seed: int = 0,
) -> ScenarioSpec:
    """Sampling zoo: every strategy scored against exhaustive ground truth.

    The workload is kept small on purpose: the ground-truth pass counts
    every memory op of the run once per process, so its cost scales
    with the op count, not the sampling period or the number of trials.
    """
    return ScenarioSpec(
        name="sampling_zoo",
        kind="sampling_accuracy",
        workloads=(WorkloadSpec(workload, n_threads=n_threads, scale=scale),),
        settings=_sampling(periods[0]),
        sampling=SamplingSpec(
            strategies=tuple(strategies),
            periods=tuple(periods),
            near_fraction=near_fraction,
        ),
        seed=seed,
    )


def quickstart_spec(
    workload: str = "stream",
    n_threads: int = 8,
    scale: float = 1 / 32,
    period: int = 4096,
    trials: int = 3,
    seed: int = 0,
) -> ScenarioSpec:
    """A single-workload profile run (the README quickstart as a spec)."""
    return ScenarioSpec(
        name="quickstart",
        kind="profile",
        workloads=(WorkloadSpec(workload, n_threads=n_threads, scale=scale),),
        settings=_sampling(period),
        trials=trials,
        seed=seed,
    )


#: name -> (zero-arg spec factory, one-line description); rendered by
#: ``python -m repro scenarios list``
SCENARIO_PRESETS: dict[str, tuple[Callable[[], ScenarioSpec], str]] = {
    "fig7": (fig7_spec, "Fig. 7 sweep: SPE samples vs sampling period"),
    "fig8": (fig8_spec, "Fig. 8 sweep: accuracy/overhead/collisions vs period"),
    "fig9": (fig9_spec, "Fig. 9 sweep: accuracy/overhead vs aux buffer size"),
    "fig10_fig11": (fig10_spec, "Figs. 10-11 sweep: profiling cost vs threads"),
    "colo_interference": (
        colo_interference_spec,
        "Colo: co-located processes on the contended DRAM channel",
    ),
    "quickstart": (quickstart_spec, "Profile: STREAM sampling quickstart"),
    "sampling_zoo": (
        sampling_zoo_spec,
        "Sampling: strategy zoo scored against exhaustive ground truth",
    ),
    "tiering_sweep": (
        tiering_sweep_spec,
        "Tiering: page-placement policies vs far-memory ratio",
    ),
}


def scenario_names() -> list[str]:
    """Registered preset names, sorted."""
    return sorted(SCENARIO_PRESETS)


def named_scenario(name: str) -> ScenarioSpec:
    """Build a preset scenario by name."""
    try:
        factory, _desc = SCENARIO_PRESETS[name]
    except KeyError:
        raise ScenarioError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None
    return factory()


def load_scenario(source: str | Path) -> ScenarioSpec:
    """Resolve a CLI scenario argument: a JSON file path or a preset name.

    Preset names always win (a stray local file or directory named
    ``fig8`` cannot shadow the preset); anything else must be a
    ``.json`` path or an existing file.
    """
    name = str(source)
    if name in SCENARIO_PRESETS:
        return named_scenario(name)
    p = Path(source)
    if p.suffix == ".json" or p.is_file():
        return ScenarioSpec.from_file(p)
    return named_scenario(name)
