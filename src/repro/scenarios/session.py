"""The Session façade: plan a scenario's trial grid, run it, report.

:class:`Session` is the one front door for profile, sweep, and
co-location runs.  Given a :class:`~repro.scenarios.spec.ScenarioSpec`
it

1. **plans** the full trial grid as
   :class:`~repro.orchestrate.runner.TrialSpec` values — the *only*
   place trial configs (and therefore cache keys) are built,
2. **runs** every trial through
   :class:`~repro.orchestrate.ParallelRunner` (workers, result cache,
   deterministic spec-order collection all come for free),
3. **aggregates** the rows into the kind's result shape and wraps them
   in a :class:`RunReport` carrying provenance (spec hash, seed,
   resolved scales, package version) and execution stats.

The legacy ``evalharness`` figure entry points are thin shims over
this class; the golden-parity suite pins that both paths produce
byte-identical cached payloads and identical rendered tables.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import ScenarioError
from repro.machine.spec import MachineSpec
from repro.orchestrate import (
    ParallelRunner,
    ResultCache,
    TrialSpec,
    canonical_config,
)
from repro.scenarios.report import render_results
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.scenarios.trials import (
    EXPERIMENT_NAMES,
    SWEEP_SCALES,
    TRIAL_FNS,
    SweepPoint,
    aggregate_sweep_points,
    colo_scenarios,
)


def _sweep_scale(w: WorkloadSpec) -> float:
    """Resolve a period-sweep workload's scale (explicit or default)."""
    if w.scale is not None:
        return w.scale
    try:
        return SWEEP_SCALES[w.name]
    except KeyError:
        raise ScenarioError(
            f"workload {w.name!r} has no default sweep scale; "
            "set WorkloadSpec.scale explicitly"
        ) from None


def _json_safe(obj: Any) -> Any:
    """Results -> plain JSON types (SweepPoints flatten to dicts)."""
    if isinstance(obj, SweepPoint):
        return asdict(obj)
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    return obj


@dataclass
class RunReport:
    """Everything one :meth:`Session.run` produced.

    (Distinct from :class:`repro.orchestrate.RunReport`, which is the
    runner's per-``map``-call execution counters; those counters land
    in this report's ``execution`` dict.)

    ``results`` is kind-shaped: ``dict[workload, list[SweepPoint]]``
    for period sweeps, a row list for the other kinds.  ``provenance``
    is deterministic (it never changes between identical runs);
    ``execution`` holds runtime facts (workers, cache hits) and is
    deliberately kept out of :meth:`render` so repeated runs print
    byte-identical reports.
    """

    spec: ScenarioSpec
    results: Any
    provenance: dict[str, Any] = field(default_factory=dict)
    execution: dict[str, Any] = field(default_factory=dict)

    def render(self) -> str:
        """The exhibit tables/charts plus a deterministic provenance block."""
        body = render_results(self.spec, self.results)
        p = self.provenance
        footer = "\n".join(
            [
                f"scenario: {p['scenario']} ({p['kind']})",
                f"spec: sha256:{p['spec_hash'][:12]}",
                f"machine: {p['machine']}  seed: {p['seed']}  "
                f"trials: {p['trials']}",
                f"repro version: {p['version']}",
            ]
        )
        return body + "\n\n" + footer

    def to_dict(self) -> dict:
        return {
            "provenance": dict(self.provenance),
            "execution": dict(self.execution),
            "spec": self.spec.to_dict(),
            "results": _json_safe(self.results),
        }

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def dump(self, path: str | Path) -> Path:
        """Write the JSON report; returns the path written."""
        p = Path(path)
        p.write_text(self.to_json() + "\n")
        return p


class Session:
    """Plan and execute declarative scenarios through one runner path.

    ``machine`` overrides the spec's machine preset (tests use the
    small machine); ``workers``/``cache`` plumb straight into
    :class:`~repro.orchestrate.ParallelRunner`.
    """

    def __init__(
        self,
        machine: MachineSpec | None = None,
        workers: int = 1,
        cache: ResultCache | None = None,
    ) -> None:
        self.machine = machine
        self.workers = workers
        self.cache = cache

    # -- planning --------------------------------------------------------

    def plan(self, spec: ScenarioSpec) -> list[TrialSpec]:
        """The scenario's full trial grid, in canonical order.

        Grid order is workload-major, axis-value-middle, trial-minor —
        the order the legacy entry points used, so per-workload slices
        of the result list stay identical.
        """
        machine = self.machine or spec.machine_spec()
        mc = canonical_config(machine)
        experiment = EXPERIMENT_NAMES[spec.kind]
        plan = getattr(self, f"_plan_{spec.kind}")
        return plan(spec, experiment, mc)

    def _plan_period_sweep(self, spec, experiment, mc) -> list[TrialSpec]:
        return [
            TrialSpec(
                experiment=experiment,
                config={
                    "workload": w.name,
                    "period": period,
                    "scale": _sweep_scale(w),
                    "n_threads": w.n_threads,
                    "machine": mc,
                },
                seed=spec.seed + trial,
            )
            for w in spec.workloads
            for period in spec.sweep.values
            for trial in range(spec.trials)
        ]

    def _plan_aux_sweep(self, spec, experiment, mc) -> list[TrialSpec]:
        w = spec.workloads[0]
        return [
            TrialSpec(
                experiment=experiment,
                config=self._with_workload(w, {
                    "aux_pages": pages,
                    "period": spec.settings.period,
                    "scale": w.scale,
                    "n_threads": w.n_threads,
                    "machine": mc,
                }),
                seed=spec.seed,
            )
            for pages in spec.sweep.values
        ]

    def _plan_thread_sweep(self, spec, experiment, mc) -> list[TrialSpec]:
        w = spec.workloads[0]
        return [
            TrialSpec(
                experiment=experiment,
                config=self._with_workload(w, {
                    "threads": t,
                    "period": spec.settings.period,
                    "scale": w.scale,
                    "machine": mc,
                }),
                seed=spec.seed,
            )
            for t in spec.sweep.values
        ]

    @staticmethod
    def _with_workload(w: WorkloadSpec, config: dict) -> dict:
        # the legacy aux/thread grids were STREAM-only and their cache
        # keys carry no workload field; only a non-default name adds one
        if w.name != "stream":
            config["workload"] = w.name
        return config

    def _plan_tiering(self, spec, experiment, mc) -> list[TrialSpec]:
        w = spec.workloads[0]
        t = spec.tiering
        return [
            TrialSpec(
                experiment=experiment,
                config={
                    "workload": w.name,
                    "n_threads": w.n_threads,
                    "scale": w.scale,
                    "period": spec.settings.period,
                    "policy": policy,
                    "far_ratio": ratio,
                    "pilot_period": t.pilot_period,
                    "machine": mc,
                },
                seed=spec.seed,
            )
            for policy in t.policies
            for ratio in t.far_ratios
        ]

    def _plan_sampling_accuracy(self, spec, experiment, mc) -> list[TrialSpec]:
        w = spec.workloads[0]
        s = spec.sampling
        return [
            TrialSpec(
                experiment=experiment,
                config={
                    "workload": w.name,
                    "n_threads": w.n_threads,
                    "scale": w.scale,
                    "strategy": strategy,
                    "period": period,
                    "near_fraction": s.near_fraction,
                    "machine": mc,
                },
                seed=spec.seed,
            )
            for strategy in s.strategies
            for period in s.periods
        ]

    def _plan_colocation(self, spec, experiment, mc) -> list[TrialSpec]:
        colo = spec.colocation
        return [
            TrialSpec(
                experiment=experiment,
                config={
                    "workloads": list(names),
                    "scale": colo.scale,
                    "period": spec.settings.period,
                    "n_threads": colo.n_threads,
                    "machine": mc,
                },
                seed=spec.seed,
            )
            for names in colo_scenarios(colo.max_corunners)
        ]

    def _plan_profile(self, spec, experiment, mc) -> list[TrialSpec]:
        return [
            TrialSpec(
                experiment=experiment,
                config={
                    "workload": w.name,
                    "n_threads": w.n_threads,
                    "scale": w.scale if w.scale is not None else 1.0,
                    "kwargs": dict(w.kwargs),
                    "settings": spec.settings.to_env(),
                    "machine": mc,
                },
                seed=spec.seed + trial,
            )
            for w in spec.workloads
            for trial in range(spec.trials)
        ]

    # -- execution -------------------------------------------------------

    def trial_fn(self, spec: ScenarioSpec):
        """The pool-safe trial callable for this spec's kind, bound to
        the session's machine (the exact callable :meth:`run` maps, so
        external drivers — the serve scheduler — hit the same cache
        entries byte-for-byte)."""
        machine = self.machine or spec.machine_spec()
        return partial(TRIAL_FNS[spec.kind], machine)

    def run(self, spec: ScenarioSpec) -> RunReport:
        """Execute the scenario and wrap the results in a RunReport."""
        trial_specs = self.plan(spec)
        runner = ParallelRunner(workers=self.workers, cache=self.cache)
        rows = runner.map(self.trial_fn(spec), trial_specs)
        return self.build_report(
            spec,
            rows,
            execution={
                "workers": runner.workers,
                "total_trials": runner.last_report.total,
                "cache_hits": runner.last_report.cache_hits,
                "executed": runner.last_report.executed,
                "cached": self.cache is not None,
            },
        )

    def build_report(
        self,
        spec: ScenarioSpec,
        rows: list,
        execution: dict[str, Any] | None = None,
    ) -> RunReport:
        """Aggregate raw trial rows into the kind-shaped RunReport.

        ``rows`` must be in :meth:`plan` order.  Provenance is fully
        deterministic; ``execution`` carries the caller's runtime facts
        (workers, cache hits) and never reaches :meth:`RunReport.render`,
        so any runner that produces the same rows produces a
        byte-identical rendered report.
        """
        machine = self.machine or spec.machine_spec()
        return RunReport(
            spec=spec,
            results=self.aggregate(spec, rows),
            provenance={
                "scenario": spec.name,
                "kind": spec.kind,
                "spec_hash": spec.spec_hash(),
                "machine": (
                    spec.machine if self.machine is None
                    else f"custom:{machine.name}"
                ),
                "seed": spec.seed,
                "trials": spec.trials,
                "scales": self._resolved_scales(spec),
                "version": _version(),
            },
            execution=dict(execution or {}),
        )

    @staticmethod
    def _resolved_scales(spec: ScenarioSpec) -> dict[str, float]:
        if spec.kind == "colocation":
            return {"colocation": spec.colocation.scale}
        if spec.kind == "period_sweep":
            return {w.name: _sweep_scale(w) for w in spec.workloads}
        return {
            w.name: (w.scale if w.scale is not None else 1.0)
            for w in spec.workloads
        }

    def aggregate(self, spec: ScenarioSpec, rows: list) -> Any:
        """Fold plan-ordered trial rows into the kind's result shape."""
        if spec.kind == "period_sweep":
            values = spec.sweep.values
            per_workload = len(values) * spec.trials
            out: dict[str, list[SweepPoint]] = {}
            for wi, w in enumerate(spec.workloads):
                chunk = rows[wi * per_workload : (wi + 1) * per_workload]
                out[w.name] = aggregate_sweep_points(
                    w.name, values, spec.trials, chunk,
                    _sweep_scale(w), w.n_threads,
                )
            return out
        if spec.kind == "profile":
            out_rows = []
            for wi, w in enumerate(spec.workloads):
                group = rows[wi * spec.trials : (wi + 1) * spec.trials]
                keys = group[0].keys()
                out_rows.append(
                    {
                        "workload": w.name,
                        "trials": spec.trials,
                        "metrics": {
                            k: float(np.mean([g[k] for g in group]))
                            for k in keys
                        },
                        "stds": {
                            k: (
                                float(np.std([g[k] for g in group], ddof=1))
                                if spec.trials > 1 else 0.0
                            )
                            for k in keys
                        },
                    }
                )
            return out_rows
        return rows  # aux/thread/colo/sampling rows are already the shape


def _version() -> str:
    import repro

    return repro.__version__
