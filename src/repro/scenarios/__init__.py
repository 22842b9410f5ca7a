"""Declarative scenarios: one front door for profile, sweep, and colo runs.

The paper's evaluation is a grid of scenarios — workload x NMO settings
x sweep axes x co-runners.  This package exposes that grid as data plus
one executor instead of one bespoke module per exhibit:

:class:`ScenarioSpec`
    A serializable description of one scenario (machine preset,
    workloads by registry name, :class:`~repro.nmo.env.NmoSettings`,
    optional sweep axis, optional co-location) with a lossless JSON
    round-trip and a content hash for provenance.
:class:`Session`
    Plans the spec's trial grid, routes every trial through
    :class:`~repro.orchestrate.ParallelRunner` and the result cache on
    one canonical cache-key path, and returns a :class:`RunReport`.
:class:`RunReport`
    Kind-shaped results plus provenance (spec hash, seed, scales,
    version); renders to text and dumps to JSON.
:mod:`~repro.scenarios.presets`
    The paper exhibits as named spec builders (``fig7`` ... ``fig10_fig11``,
    ``colo_interference``), behind ``python -m repro run <name>``.

Quickstart::

    from repro.scenarios import Session, load_scenario

    spec = load_scenario("fig8")            # or a path to a .json file
    report = Session(workers=4).run(spec)
    print(report.render())
    report.dump("fig8-report.json")

The paper's sweep exhibits are presets here, run by
``Session(...).run(fig7_spec(...))``; new sweep/sharding/backend work
should target :class:`Session` directly.
"""

from repro.scenarios.presets import (
    FIG7_PERIODS,
    FIG8_PERIODS,
    FIG9_AUX_PAGES,
    FIG10_THREADS,
    SCENARIO_PRESETS,
    colo_interference_spec,
    fig7_spec,
    fig8_spec,
    fig9_spec,
    fig10_spec,
    load_scenario,
    named_scenario,
    quickstart_spec,
    sampling_zoo_spec,
    scenario_names,
    tiering_sweep_spec,
)
from repro.scenarios.report import render_results
from repro.scenarios.session import RunReport, Session
from repro.scenarios.spec import (
    KINDS,
    MACHINE_PRESETS,
    ColocationSpec,
    SamplingSpec,
    ScenarioSpec,
    SweepAxis,
    TieringSpec,
    WorkloadSpec,
)
from repro.scenarios.trials import (
    COLO_MIX,
    COLO_TIMELINE_SECONDS,
    EXPERIMENT_NAMES,
    SWEEP_SCALES,
    SweepPoint,
    colo_scenarios,
)

__all__ = [
    "COLO_MIX",
    "COLO_TIMELINE_SECONDS",
    "ColocationSpec",
    "EXPERIMENT_NAMES",
    "FIG10_THREADS",
    "FIG7_PERIODS",
    "FIG8_PERIODS",
    "FIG9_AUX_PAGES",
    "KINDS",
    "MACHINE_PRESETS",
    "RunReport",
    "SCENARIO_PRESETS",
    "SWEEP_SCALES",
    "SamplingSpec",
    "ScenarioSpec",
    "Session",
    "SweepAxis",
    "SweepPoint",
    "TieringSpec",
    "WorkloadSpec",
    "colo_interference_spec",
    "colo_scenarios",
    "fig10_spec",
    "fig7_spec",
    "fig8_spec",
    "fig9_spec",
    "load_scenario",
    "named_scenario",
    "quickstart_spec",
    "render_results",
    "sampling_zoo_spec",
    "scenario_names",
    "tiering_sweep_spec",
]
