"""Generic sweep utility tests."""

import pytest

from repro.errors import ReproError
from repro.evalharness.sweep import SweepResult, crossover, sweep
from repro.orchestrate import ResultCache


def picklable_run(v, t):
    """Module-level so workers>1 sweeps can ship it to the pool."""
    return {"x": float(v * 10 + t)}


class TestSweep:
    def test_runs_grid(self):
        out = sweep([1, 2, 3], lambda v, t: {"x": float(v * 10)})
        assert [r.value for r in out] == [1, 2, 3]
        assert out[1].metrics["x"] == 20.0

    def test_trials_aggregate(self):
        out = sweep([5], lambda v, t: {"x": float(v + t)}, trials=3)
        assert out[0].metrics["x"] == pytest.approx(6.0)
        assert out[0].stds["x"] > 0
        assert out[0].trials == 3

    def test_single_trial_zero_std(self):
        out = sweep([1], lambda v, t: {"x": 1.0})
        assert out[0].stds["x"] == 0.0

    def test_inconsistent_keys_rejected(self):
        def run(v, t):
            return {"a": 1.0} if t == 0 else {"b": 1.0}

        with pytest.raises(ReproError):
            sweep([1], run, trials=2)

    def test_zero_trials_rejected(self):
        with pytest.raises(ReproError):
            sweep([1], lambda v, t: {}, trials=0)


class TestOrchestratedSweep:
    def test_parallel_matches_serial(self):
        serial = sweep([1, 2, 3], picklable_run, trials=2, workers=1)
        parallel = sweep([1, 2, 3], picklable_run, trials=2, workers=2)
        assert serial == parallel

    def test_cache_requires_experiment_name(self, tmp_path):
        with pytest.raises(ReproError, match="experiment name"):
            sweep([1], picklable_run, cache=ResultCache(tmp_path))

    def test_cached_rerun_hits(self, tmp_path):
        a = sweep([1, 2], picklable_run, trials=2,
                  cache=ResultCache(tmp_path), experiment="demo")
        b = sweep([1, 2], picklable_run, trials=2,
                  cache=ResultCache(tmp_path), experiment="demo")
        assert a == b
        totals = ResultCache(tmp_path).persistent_stats()
        assert (totals["hits"], totals["misses"], totals["stores"]) == (4, 4, 4)
        assert totals["deser_ns"] > 0

    def test_experiment_names_do_not_collide(self, tmp_path):
        sweep([1], picklable_run, cache=ResultCache(tmp_path),
              experiment="demo-a")
        sweep([1], picklable_run, cache=ResultCache(tmp_path),
              experiment="demo-b")
        totals = ResultCache(tmp_path).persistent_stats()
        assert totals["hits"] == 0
        assert totals["stores"] == 2


class TestCrossover:
    def rows(self):
        return [
            SweepResult(value=v, metrics={"a": float(v), "b": 5.0},
                        stds={}, trials=1)
            for v in (1, 4, 6, 9)
        ]

    def test_first_crossing(self):
        assert crossover(self.rows(), "a", "b") == 6

    def test_no_crossing(self):
        rows = [
            SweepResult(value=1, metrics={"a": 0.0, "b": 5.0}, stds={}, trials=1)
        ]
        assert crossover(rows, "a", "b") is None

    def test_empty_rejected(self):
        with pytest.raises(ReproError):
            crossover([], "a", "b")

    def test_missing_metric_rejected(self):
        with pytest.raises(ReproError):
            crossover(self.rows(), "a", "zz")
