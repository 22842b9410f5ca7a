"""Declarative scenario specifications (the `what` of an evaluation run).

A :class:`ScenarioSpec` describes one paper-style evaluation scenario —
machine preset, one-or-many workloads by registry name, the NMO
settings, an optional sweep axis, an optional co-location block — as a
plain, serializable value object.  ``to_json``/``from_json`` round-trip
losslessly (``from_json(to_json(spec)) == spec``), so scenario files
can be checked in, diffed, and shipped to other machines; the spec hash
over the canonical JSON is the provenance anchor every
:class:`~repro.scenarios.session.RunReport` carries.

The spec is deliberately *dumb*: it holds no machinery, only enough
structure for :class:`~repro.scenarios.session.Session` to plan the
trial grid.  Validation happens eagerly at construction so a bad
scenario file fails at load time, with the workload registry's
"known: ..." error for unknown workload names.  The schema is declared
once: every block shares one dataclass-driven JSON codec, and each
kind's shape is one :data:`KIND_RULES` row.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import MISSING, dataclass, field
from pathlib import Path
from typing import Callable, ClassVar

from repro.errors import ScenarioError
from repro.machine.spec import (
    MachineSpec,
    ampere_altra_max,
    small_test_machine,
    tiered_altra_max,
    tiered_test_machine,
    x86_pebs_machine,
)
from repro.machine.tiers import PLACEMENT_POLICIES
from repro.nmo.env import NmoMode, NmoSettings
from repro.spe.strategies import STRATEGY_NAMES
from repro.workloads.registry import get_workload_class

#: machine preset names a spec may reference (JSON stays portable)
MACHINE_PRESETS: dict[str, Callable[[], MachineSpec]] = {
    "ampere_altra_max": ampere_altra_max,
    "small_test_machine": small_test_machine,
    "tiered_altra_max": tiered_altra_max,
    "tiered_test_machine": tiered_test_machine,
    "x86_pebs_machine": x86_pebs_machine,
}


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise ScenarioError(message)


def _check_keys(
    d: dict, required: set[str], allowed: set[str], what: str
) -> None:
    if not isinstance(d, dict):
        raise ScenarioError(f"{what} block must be a JSON object, got {d!r}")
    missing = required - set(d)
    _require(not missing, f"{what} block missing keys: {sorted(missing)}")
    unknown = set(d) - allowed
    _require(not unknown, f"{what} block has unknown keys: {sorted(unknown)}")


class _Block:
    """The JSON codec every spec block shares, driven by its dataclass
    fields: ``to_dict`` emits each field (tuples as lists), and
    ``from_dict`` accepts exactly the field names, requires those
    without a default and leaves coercion to the block's
    ``__post_init__``."""

    #: the block's name in key-check errors
    _what: ClassVar[str]

    def to_dict(self) -> dict:
        out = {}
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = dict(value)
            out[f.name] = value
        return out

    @classmethod
    def from_dict(cls, d: dict):
        fields = dataclasses.fields(cls)
        required = {
            f.name for f in fields
            if f.default is MISSING and f.default_factory is MISSING
        }
        _check_keys(d, required, {f.name for f in fields}, cls._what)
        return cls(**d)


@dataclass(frozen=True)
class WorkloadSpec(_Block):
    """One workload by registry name plus its sizing knobs.

    ``scale=None`` means "use the kind's default" (the per-workload
    :data:`~repro.scenarios.trials.SWEEP_SCALES` for period sweeps, 1.0
    for profile runs); sweep kinds that have no default require an
    explicit scale.
    """

    _what: ClassVar[str] = "workload"

    name: str
    n_threads: int = 32
    scale: float | None = None
    kwargs: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_threads", int(self.n_threads))
        get_workload_class(self.name)  # unknown names raise "known: ..."
        _require(self.n_threads >= 1, "workload needs at least one thread")
        if self.scale is not None:
            _require(self.scale > 0, "workload scale must be positive")
            object.__setattr__(self, "scale", float(self.scale))
        kwargs = self.kwargs or {}  # JSON null loads as no kwargs
        _require(
            isinstance(kwargs, dict), "workload kwargs must be a JSON object"
        )
        object.__setattr__(self, "kwargs", dict(kwargs))


@dataclass(frozen=True)
class SweepAxis(_Block):
    """The swept parameter and its grid values."""

    _what: ClassVar[str] = "sweep"

    param: str
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        known = sorted({r.axis for r in KIND_RULES.values() if r.axis})
        _require(
            self.param in known,
            f"unknown sweep axis {self.param!r}; known: {', '.join(known)}",
        )
        values = tuple(int(v) for v in self.values)
        _require(len(values) >= 1, "sweep axis needs at least one value")
        _require(all(v > 0 for v in values), "sweep values must be positive")
        object.__setattr__(self, "values", values)


@dataclass(frozen=True)
class ColocationSpec(_Block):
    """Co-location block: sweep 1..N co-runner line-ups on one machine.

    Line-ups come from :func:`~repro.scenarios.trials.colo_scenarios`
    (all-STREAM plus the mixed CloudSuite pairing per count); every
    runner shares ``n_threads`` and ``scale`` while seeds stay
    per-runner.
    """

    _what: ClassVar[str] = "colocation"

    max_corunners: int = 4
    n_threads: int = 8
    scale: float = 0.02

    def __post_init__(self) -> None:
        object.__setattr__(self, "max_corunners", int(self.max_corunners))
        object.__setattr__(self, "n_threads", int(self.n_threads))
        _require(self.max_corunners >= 1, "max_corunners must be >= 1")
        _require(self.n_threads >= 1, "co-runners need at least one thread")
        _require(self.scale > 0, "co-location scale must be positive")
        object.__setattr__(self, "scale", float(self.scale))


@dataclass(frozen=True)
class TieringSpec(_Block):
    """Tiering block: sweep placement policies against far-memory ratios.

    A ``tiering`` scenario profiles one workload on a tiered machine
    preset under every ``(policy, far_ratio)`` grid point: the near
    tier is budgeted ``1 - far_ratio`` of the workload's pages and the
    far tiers split the rest (see
    :func:`repro.machine.tiers.tier_budgets`).  The ``hotness`` policy
    runs an SPE pilot profile at ``pilot_period`` first and promotes
    the hottest pages — the paper's "use SPE to decide placement" loop.
    """

    _what: ClassVar[str] = "tiering"

    policies: tuple[str, ...] = PLACEMENT_POLICIES
    far_ratios: tuple[float, ...] = (0.0, 0.25, 0.5)
    pilot_period: int = 2048

    def __post_init__(self) -> None:
        policies = tuple(str(p) for p in self.policies)
        _require(len(policies) >= 1, "tiering needs at least one policy")
        unknown = [p for p in policies if p not in PLACEMENT_POLICIES]
        _require(
            not unknown,
            f"unknown placement policies {unknown}; "
            f"known: {', '.join(PLACEMENT_POLICIES)}",
        )
        _require(
            len(set(policies)) == len(policies),
            "tiering policies must be unique",
        )
        object.__setattr__(self, "policies", policies)
        ratios = tuple(float(r) for r in self.far_ratios)
        _require(len(ratios) >= 1, "tiering needs at least one far ratio")
        _require(
            all(0.0 <= r < 1.0 for r in ratios),
            "far ratios must be in [0, 1)",
        )
        _require(
            len(set(ratios)) == len(ratios), "far ratios must be unique"
        )
        object.__setattr__(self, "far_ratios", ratios)
        object.__setattr__(self, "pilot_period", int(self.pilot_period))
        _require(self.pilot_period >= 1, "pilot_period must be >= 1")


@dataclass(frozen=True)
class SamplingSpec(_Block):
    """Sampling block: score sampling strategies against ground truth.

    A ``sampling_accuracy`` scenario profiles one workload under every
    ``(strategy, period)`` grid point and compares each run's per-page
    hotness with an exhaustive pass over the same op sources
    (:mod:`repro.analysis.sampling`).  ``near_fraction`` sizes the
    near-tier budget the ``miss_ratio_error`` placement-regret metric
    evaluates against.
    """

    _what: ClassVar[str] = "sampling"

    strategies: tuple[str, ...] = STRATEGY_NAMES
    periods: tuple[int, ...] = (512, 2048)
    near_fraction: float = 0.5

    def __post_init__(self) -> None:
        strategies = tuple(str(s) for s in self.strategies)
        _require(len(strategies) >= 1, "sampling needs at least one strategy")
        unknown = [s for s in strategies if s not in STRATEGY_NAMES]
        _require(
            not unknown,
            f"unknown sampling strategies {unknown}; "
            f"known: {', '.join(STRATEGY_NAMES)}",
        )
        _require(
            len(set(strategies)) == len(strategies),
            "sampling strategies must be unique",
        )
        object.__setattr__(self, "strategies", strategies)
        periods = tuple(int(p) for p in self.periods)
        _require(len(periods) >= 1, "sampling needs at least one period")
        _require(all(p > 0 for p in periods), "sampling periods must be positive")
        _require(
            len(set(periods)) == len(periods), "sampling periods must be unique"
        )
        object.__setattr__(self, "periods", periods)
        _require(
            0.0 < self.near_fraction < 1.0,
            "near_fraction must be in (0, 1)",
        )
        object.__setattr__(self, "near_fraction", float(self.near_fraction))


#: the optional blocks, by :class:`ScenarioSpec` field
BLOCKS: dict[str, type[_Block]] = {
    "sweep": SweepAxis,
    "colocation": ColocationSpec,
    "tiering": TieringSpec,
    "sampling": SamplingSpec,
}


@dataclass(frozen=True)
class KindRule:
    """The shape of one scenario kind: a :data:`KIND_RULES` row.

    ``block`` is the one optional block the kind takes (every other
    block must be unset) and ``axis`` its sweep parameter; ``workloads``
    is ``"1+"``, ``"1"`` or ``"0"``.  ``period_only`` kinds pin the
    legacy trial recipe: only ``NMO_PERIOD`` of the settings block (and
    no workload kwargs) reaches their trials.  ``periods_from`` names
    the block that supplies every trial's period, whose first value
    ``NMO_PERIOD`` must equal so the spec hash never covers a period
    that did not run.
    """

    block: str | None
    workloads: str
    axis: str | None = None
    explicit_scale: bool = False
    single_trial: bool = False
    period_only: bool = True
    periods_from: str | None = None


#: one row per scenario kind a Session knows how to plan
KIND_RULES: dict[str, KindRule] = {
    "profile": KindRule(None, "1+", period_only=False),
    "period_sweep": KindRule(
        "sweep", "1+", axis="period", periods_from="sweep"
    ),
    "aux_sweep": KindRule(
        "sweep", "1", axis="aux_pages", explicit_scale=True,
        single_trial=True,
    ),
    "thread_sweep": KindRule(
        "sweep", "1", axis="threads", explicit_scale=True, single_trial=True
    ),
    "colocation": KindRule("colocation", "0", single_trial=True),
    "tiering": KindRule(
        "tiering", "1", explicit_scale=True, single_trial=True
    ),
    "sampling_accuracy": KindRule(
        "sampling", "1", explicit_scale=True, single_trial=True,
        periods_from="sampling",
    ),
}

#: scenario kinds a Session knows how to plan
KINDS = tuple(KIND_RULES)


def _default_settings() -> NmoSettings:
    return NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=4096)


@dataclass(frozen=True)
class ScenarioSpec:
    """One declarative evaluation scenario.

    ``settings.period`` is the sampling period used by every trial;
    for ``period_sweep`` kinds the sweep axis overrides it per grid
    point (the stored value is only the template).  ``seed`` is the
    base seed: sweep trials use ``seed + trial_index``.
    """

    name: str
    kind: str
    workloads: tuple[WorkloadSpec, ...] = ()
    settings: NmoSettings = field(default_factory=_default_settings)
    machine: str = "ampere_altra_max"
    sweep: SweepAxis | None = None
    colocation: ColocationSpec | None = None
    tiering: TieringSpec | None = None
    sampling: SamplingSpec | None = None
    trials: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        _require(bool(self.name), "scenario needs a name")
        _require(
            self.kind in KINDS,
            f"unknown scenario kind {self.kind!r}; known: {', '.join(KINDS)}",
        )
        _require(
            self.machine in MACHINE_PRESETS,
            f"unknown machine preset {self.machine!r}; "
            f"known: {', '.join(sorted(MACHINE_PRESETS))}",
        )
        object.__setattr__(self, "workloads", tuple(self.workloads))
        _require(
            all(isinstance(w, WorkloadSpec) for w in self.workloads),
            "workloads must be WorkloadSpec instances",
        )
        _require(
            isinstance(self.settings, NmoSettings),
            "settings must be an NmoSettings",
        )
        _require(self.trials >= 1, "trials must be >= 1")
        _require(isinstance(self.seed, int), "seed must be an integer")
        self._check_kind()

    def _check_kind(self) -> None:
        """Apply the kind's :data:`KIND_RULES` row."""
        kind, rule = self.kind, KIND_RULES[self.kind]
        if rule.axis is not None:
            _require(
                self.sweep is not None and self.sweep.param == rule.axis,
                f"{kind} scenarios need a sweep over {rule.axis!r}",
            )
        elif rule.block is not None:
            _require(
                getattr(self, rule.block) is not None,
                f"{kind} scenarios need a {rule.block} block",
            )
        for name in BLOCKS:
            if name != rule.block:
                _require(
                    getattr(self, name) is None,
                    f"{kind} takes no "
                    + ("sweep axis" if name == "sweep" else f"{name} block"),
                )
        n = len(self.workloads)
        if rule.workloads == "1+":
            _require(n >= 1, f"{kind} needs >= 1 workload")
        elif rule.workloads == "1":
            verb = "sweeps" if rule.axis else "profiles"
            _require(n == 1, f"{kind} {verb} exactly one workload")
        else:
            _require(
                n == 0,
                f"{kind} line-ups are derived from the {rule.block} block; "
                "leave workloads empty",
            )
        if rule.explicit_scale:
            _require(
                self.workloads[0].scale is not None,
                f"{kind} needs an explicit workload scale",
            )
        if rule.single_trial:
            _require(self.trials == 1, f"{kind} supports a single trial")
        if rule.axis == "threads":
            # the axis IS the thread count; a pinned n_threads would be
            # silently ignored (and falsely enter the spec hash)
            _require(
                self.workloads[0].n_threads == 32,
                "thread_sweep sweeps the thread count; leave the "
                "workload's n_threads at its default",
            )
        if rule.block == "tiering":
            _require(
                MACHINE_PRESETS[self.machine]().tiers is not None,
                f"tiering needs a tiered machine preset; {self.machine!r} "
                "declares no memory tiers (use tiered_altra_max or "
                "tiered_test_machine)",
            )
        if rule.period_only:
            # reject what the trial would silently drop: the spec hash
            # must only cover what actually runs
            template = dataclasses.replace(
                _default_settings(), period=self.settings.period
            )
            _require(
                self.settings == template,
                f"{kind} honours only NMO_PERIOD of the settings block; "
                "the other fields must keep their Table I defaults",
            )
            _require(
                all(not w.kwargs for w in self.workloads),
                f"{kind} does not pass workload kwargs; remove them",
            )
        if rule.periods_from == "sweep":
            _require(
                self.settings.period == self.sweep.values[0],
                f"{kind} takes its periods from the sweep axis; set "
                "NMO_PERIOD to the first axis value",
            )
        elif rule.periods_from is not None:
            block = getattr(self, rule.periods_from)
            _require(
                self.settings.period == block.periods[0],
                f"{kind} takes its periods from the {rule.periods_from} "
                "block; set NMO_PERIOD to the first block period",
            )

    # -- resolution -------------------------------------------------------

    def machine_spec(self) -> MachineSpec:
        """Instantiate the referenced machine preset."""
        return MACHINE_PRESETS[self.machine]()

    # -- serialization ----------------------------------------------------

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "kind": self.kind,
            "machine": self.machine,
            "workloads": [w.to_dict() for w in self.workloads],
            "settings": self.settings.to_env(),
            "trials": self.trials,
            "seed": self.seed,
        }
        for name in BLOCKS:
            block = getattr(self, name)
            # sweep and colocation are always emitted; the later blocks
            # appear only when set, so the canonical JSON (and the spec
            # hash) of files written before they existed stays the same
            if block is not None or name in ("sweep", "colocation"):
                out[name] = block.to_dict() if block is not None else None
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioSpec":
        names = {f.name for f in dataclasses.fields(cls)}
        _check_keys(d, {"name", "kind"}, names, "scenario")
        try:
            return cls._build_from_dict(d)
        except (TypeError, ValueError) as e:
            # bare coercion failures (non-list sweep values, "three"
            # trials, ...) become the clean scenario error the CLI shows
            raise ScenarioError(f"malformed scenario value: {e}") from None

    @classmethod
    def _build_from_dict(cls, d: dict) -> "ScenarioSpec":
        settings = d.get("settings")
        kw = {
            "name": d["name"],
            "kind": d["kind"],
            "machine": d.get("machine", "ampere_altra_max"),
            "workloads": tuple(
                WorkloadSpec.from_dict(w) for w in d.get("workloads") or ()
            ),
            "settings": (
                NmoSettings.from_env(settings)
                if settings is not None
                else _default_settings()
            ),
        }
        for name, block in BLOCKS.items():
            if d.get(name) is not None:
                kw[name] = block.from_dict(d[name])
        return cls(
            **kw, trials=int(d.get("trials", 1)), seed=int(d.get("seed", 0))
        )

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as e:
            raise ScenarioError(f"scenario is not valid JSON: {e}") from None
        return cls.from_dict(d)

    @classmethod
    def from_file(cls, path: str | Path) -> "ScenarioSpec":
        p = Path(path)
        try:
            text = p.read_text()
        except OSError as e:
            raise ScenarioError(f"cannot read scenario file {p}: {e}") from None
        return cls.from_json(text)

    def spec_hash(self) -> str:
        """SHA-256 over the canonical JSON rendering (provenance anchor)."""
        payload = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()
