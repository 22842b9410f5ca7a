"""The sampling_accuracy scenario kind: planning, validation, execution."""

import dataclasses

import numpy as np
import pytest

import repro.analysis.sampling as analysis_sampling
from repro.errors import ScenarioError
from repro.machine.spec import small_test_machine
from repro.orchestrate import ResultCache
from repro.scenarios import (
    SamplingSpec,
    ScenarioSpec,
    Session,
    WorkloadSpec,
    sampling_zoo_spec,
)
from repro.scenarios.presets import _sampling
from repro.scenarios.report import render_results
from repro.scenarios.trials import ground_truth, sampling_accuracy_trial
from repro.spe.strategies import STRATEGY_NAMES

BIAS_COLUMNS = (
    "rank_error", "miss_ratio_error", "dead_zone_count",
    "dead_zone_max_width", "dead_access_fraction", "rate_deviation",
)


def small_zoo(**kw):
    kw.setdefault("strategies", ("periodic", "page_hash"))
    kw.setdefault("periods", (512,))
    return sampling_zoo_spec(**kw)


class TestSamplingSpecValidation:
    def test_unknown_strategy_rejected(self):
        with pytest.raises(
            ScenarioError, match="unknown sampling strategies"
        ):
            SamplingSpec(strategies=("periodic", "bogus"))

    def test_empty_strategies_rejected(self):
        with pytest.raises(ScenarioError):
            SamplingSpec(strategies=())

    def test_duplicate_strategies_rejected(self):
        with pytest.raises(ScenarioError):
            SamplingSpec(strategies=("periodic", "periodic"))

    def test_bad_periods_rejected(self):
        with pytest.raises(ScenarioError):
            SamplingSpec(periods=(0,))
        with pytest.raises(ScenarioError):
            SamplingSpec(periods=(512, 512))

    def test_bad_near_fraction_rejected(self):
        for bad in (0.0, 1.0, -1.0):
            with pytest.raises(ScenarioError):
                SamplingSpec(near_fraction=bad)

    def test_kind_requires_sampling_block(self):
        with pytest.raises(ScenarioError, match="sampling"):
            ScenarioSpec(
                name="x",
                kind="sampling_accuracy",
                workloads=(WorkloadSpec("stream", n_threads=2,
                                        scale=1 / 1024),),
                settings=_sampling(512),
            )

    def test_settings_period_must_lead_the_block(self):
        with pytest.raises(ScenarioError, match="first block period"):
            ScenarioSpec(
                name="x",
                kind="sampling_accuracy",
                workloads=(WorkloadSpec("stream", n_threads=2,
                                        scale=1 / 1024),),
                settings=_sampling(4096),
                sampling=SamplingSpec(periods=(512,)),
            )

    def test_other_kinds_reject_a_sampling_block(self):
        from repro.scenarios import quickstart_spec

        base = quickstart_spec()
        with pytest.raises(ScenarioError, match="no sampling block"):
            ScenarioSpec.from_dict(
                {**base.to_dict(),
                 "sampling": SamplingSpec(periods=(4096,)).to_dict()}
            )


class TestPlanning:
    def test_grid_is_strategy_major(self):
        trials = Session().plan(sampling_zoo_spec())
        assert len(trials) == len(STRATEGY_NAMES) * 2
        configs = [t.config for t in trials]
        assert [c["strategy"] for c in configs[:2]] == ["periodic"] * 2
        assert [c["period"] for c in configs[:2]] == [512, 2048]
        assert configs[-1]["strategy"] == "hybrid"

    def test_trial_config_carries_near_fraction(self):
        t = Session().plan(small_zoo(near_fraction=0.25))[0]
        assert t.config["near_fraction"] == 0.25
        assert t.experiment == "sampling_accuracy"
        assert t.seed == 0


class TestExecution:
    @pytest.fixture(scope="class")
    def report(self):
        return Session().run(small_zoo())

    def test_rows_have_bias_columns(self, report):
        rows = report.results
        assert len(rows) == 2
        for row in rows:
            for col in BIAS_COLUMNS + ("strategy", "period", "samples",
                                       "overhead"):
                assert col in row, col

    def test_deterministic_per_seed(self, report):
        again = Session().run(small_zoo())
        assert again.results == report.results

    def test_page_hash_shows_dead_zones_periodic_does_not(self, report):
        by_strategy = {
            r["strategy"]: r for r in report.results
        }
        assert by_strategy["periodic"]["dead_zone_count"] == 0
        assert by_strategy["page_hash"]["dead_zone_count"] > 0
        assert by_strategy["page_hash"]["dead_access_fraction"] > 0

    def test_render_contains_detail_and_ranking(self, report):
        text = report.render()
        assert "strategy bias vs exhaustive ground truth" in text
        assert "strategies ranked by hotness rank error" in text
        assert "periodic" in text and "page_hash" in text

    def test_render_results_kind_dispatch(self, report):
        # an unnamed spec of the same kind falls back to the kind renderer
        spec = small_zoo()
        anon = ScenarioSpec.from_dict({**spec.to_dict(), "name": "my_zoo"})
        text = render_results(anon, report.results)
        assert "rank err" in text

    def test_rerun_hits_cache_fully(self, tmp_path):
        spec = small_zoo()
        cache = ResultCache(tmp_path)
        r1 = Session(cache=cache).run(spec)
        assert r1.execution["cache_hits"] == 0
        r2 = Session(cache=ResultCache(tmp_path)).run(spec)
        assert r2.execution["cache_hits"] == len(r2.results)
        assert r2.results == r1.results

    def test_ranking_deterministic_full_zoo(self):
        # the acceptance gate: the five-strategy zoo ranks
        # deterministically per seed
        rows = Session().run(sampling_zoo_spec()).results
        means = {}
        for row in rows:
            means.setdefault(row["strategy"], []).append(row["rank_error"])
        ranking = sorted(
            means, key=lambda s: (float(np.mean(means[s])), s)
        )
        rows2 = Session().run(sampling_zoo_spec()).results
        means2 = {}
        for row in rows2:
            means2.setdefault(row["strategy"], []).append(row["rank_error"])
        ranking2 = sorted(
            means2, key=lambda s: (float(np.mean(means2[s])), s)
        )
        assert ranking == ranking2
        assert set(ranking) == set(STRATEGY_NAMES)


class TestGroundTruthMemo:
    @pytest.fixture
    def walks(self, monkeypatch):
        """Calls of ``exhaustive_page_hotness``, from a cleared memo."""
        calls = []
        walk = analysis_sampling.exhaustive_page_hotness

        def counted(workload, *args, **kwargs):
            calls.append(workload.name)
            return walk(workload, *args, **kwargs)

        monkeypatch.setattr(
            analysis_sampling, "exhaustive_page_hotness", counted
        )
        ground_truth.cache_clear()
        yield calls
        ground_truth.cache_clear()

    def test_second_trial_reuses_the_truth(self, walks):
        spec = small_zoo()
        machine = spec.machine_spec()
        rows = [
            sampling_accuracy_trial(machine, t) for t in Session().plan(spec)
        ]
        assert len(rows) == 2
        assert walks == ["stream"]
        assert [r["strategy"] for r in rows] == ["periodic", "page_hash"]

    def test_truth_is_read_only_and_bounded(self, walks):
        truth = ground_truth("stream", 2, 1 / 4096, small_test_machine())
        assert not truth.flags.writeable
        with pytest.raises(ValueError):
            truth[0] = 1
        assert ground_truth.cache_info().maxsize == 4

    def test_same_named_machine_misses(self, walks):
        machine = small_test_machine()
        faster = dataclasses.replace(machine, frequency_hz=2e9)
        assert faster.name == machine.name
        ground_truth("stream", 2, 1 / 4096, machine)
        ground_truth("stream", 2, 1 / 4096, faster)
        ground_truth("stream", 2, 1 / 4096, machine)
        assert walks == ["stream", "stream"]
