"""Golden parity: every front door and executor caches the same bytes.

Each comparison below runs one exhibit preset two ways and requires

* equal in-memory results,
* identical rendered tables,
* **byte-identical cached payloads under the same keys** — two runs
  against two cache directories must leave the same set of entry
  files with the same bytes.

Figs. 7-10 and colo compare the runner's two executors, in-process
(``workers=1``) and a worker pool (``workers=2``).  Colo also compares
a figure command (``python -m repro colo_interference``) with
``Session.run`` of its preset (what ``python -m repro run`` does), and
a preset run over the figure command's cache must be a full hit: that
is what lets a fleet mix figure commands and ``repro run`` invocations
against one shared cache.
"""

from repro.__main__ import main
from repro.scenarios.report import (
    render_colo,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10_fig11,
)
from repro.orchestrate import ResultCache
from repro.scenarios import (
    Session,
    colo_interference_spec,
    fig7_spec,
    fig8_spec,
    fig9_spec,
    fig10_spec,
)


def cache_blobs(cache: ResultCache) -> dict[str, bytes]:
    """Map entry filename (the key) -> raw pickled payload bytes."""
    return {p.name: p.read_bytes() for p in cache.entries()}


def assert_cache_parity(a: ResultCache, b: ResultCache) -> None:
    blobs_a, blobs_b = cache_blobs(a), cache_blobs(b)
    assert blobs_a.keys() == blobs_b.keys()
    assert blobs_a  # something was actually cached
    for name in blobs_a:
        assert blobs_a[name] == blobs_b[name], f"payload differs: {name}"


def assert_paths_agree(tmp_path, spec, render) -> None:
    """Run ``spec`` in-process and on a pool; compare results, tables
    and cache bytes."""
    ca, cb = ResultCache(tmp_path / "a"), ResultCache(tmp_path / "b")
    inline = Session(workers=1, cache=ca).run(spec).results
    pooled = Session(workers=2, cache=cb).run(spec).results
    assert inline == pooled
    assert render(inline) == render(pooled)
    assert_cache_parity(ca, cb)


class TestFig7Parity:
    def test_results_render_and_cache(self, tmp_path):
        spec = fig7_spec(periods=(2048, 8192), trials=2, workloads=("bfs",),
                         scale=0.2)
        assert_paths_agree(tmp_path, spec, render_fig7)


class TestFig8Parity:
    def test_results_render_and_cache(self, tmp_path):
        spec = fig8_spec(periods=(2048, 8192), trials=2, workloads=("bfs",),
                         scale=0.2)
        assert_paths_agree(tmp_path, spec, render_fig8)


class TestFig9Parity:
    def test_results_render_and_cache(self, tmp_path):
        spec = fig9_spec(aux_pages=(4, 16), period=2048, scale=0.2,
                         n_threads=2)
        assert_paths_agree(tmp_path, spec, render_fig9)


class TestFig10Parity:
    def test_results_render_and_cache(self, tmp_path):
        spec = fig10_spec(thread_counts=(2, 8), scale=0.25)
        assert_paths_agree(tmp_path, spec, render_fig10_fig11)


class TestColoParity:
    def test_executors_agree(self, tmp_path):
        # a one-runner line-up's label is its runner's name: both must
        # pickle as one shared string from the pool too
        spec = colo_interference_spec(max_corunners=2, scale=0.002)
        assert_paths_agree(tmp_path, spec, render_colo)

    def test_results_render_and_cache(self, tmp_path, capsys):
        cli_dir = tmp_path / "cli"
        assert main(
            ["colo_interference", "--corunners", "1",
             "--workload-scale", "0.002", "--cache-dir", str(cli_dir)]
        ) == 0
        printed = capsys.readouterr().out
        spec = colo_interference_spec(max_corunners=1, scale=0.002)
        preset = ResultCache(tmp_path / "preset")
        results = Session(cache=preset).run(spec).results
        assert printed == render_colo(results) + "\n"
        assert_cache_parity(ResultCache(cli_dir), preset)


class TestSharedCacheAcrossPaths:
    def test_spec_run_hits_entries_stored_by_legacy_path(
        self, tmp_path, capsys
    ):
        # one cache directory: the figure command writes, the preset
        # run must be a full cache hit (zero executions)
        assert main(
            ["colo_interference", "--corunners", "2",
             "--workload-scale", "0.002", "--cache-dir", str(tmp_path)]
        ) == 0
        printed = capsys.readouterr().out
        spec = colo_interference_spec(max_corunners=2, scale=0.002)
        report = Session(cache=ResultCache(tmp_path)).run(spec)
        execution = report.execution
        assert execution["cache_hits"] == execution["total_trials"]
        assert execution["executed"] == 0
        assert printed == render_colo(report.results) + "\n"
