"""CLI runner tests (python -m repro)."""

import pytest

from repro.__main__ import COMMANDS, main
from repro.orchestrate import ResultCache, make_cache


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig2", "fig8", "fig9", "table1", "table2"):
            assert name in out

    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "NMO_PERIOD" in out

    def test_table2(self, capsys):
        assert main(["table2"]) == 0
        out = capsys.readouterr().out
        assert "3.0 GHz" in out

    def test_fig2_scaled(self, capsys):
        assert main(["fig2", "--scale", "0.02"]) == 0
        out = capsys.readouterr().out
        assert "Fig.2" in out and "GiB" in out

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["nope"])

    def test_colo_interference_tiny(self, capsys):
        assert main(
            ["colo_interference", "--corunners", "1",
             "--workload-scale", "0.002"]
        ) == 0
        out = capsys.readouterr().out
        assert "contended channel" in out
        assert "stream" in out

    def test_bad_corunners_rejected(self):
        with pytest.raises(SystemExit):
            main(["colo_interference", "--corunners", "0"])
        # more co-runners than fit on the machine fail at flag parsing,
        # not as a traceback from run_colocation
        with pytest.raises(SystemExit):
            main(["colo_interference", "--corunners", "17"])

    def test_every_registered_experiment_has_callable(self):
        assert all(callable(fn) for fn, _desc in COMMANDS.values())

    def test_every_command_has_description(self):
        for name, (fn, desc) in COMMANDS.items():
            assert callable(fn) and desc, name

    def test_list_shows_descriptions(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name, (_fn, desc) in COMMANDS.items():
            assert desc in out, name

    def test_action_rejected_for_experiments(self):
        with pytest.raises(SystemExit):
            main(["fig2", "stats"])

    def test_action_rejected_for_list(self):
        with pytest.raises(SystemExit):
            main(["list", "stats"])


FIG9_ARGS = ["fig9"]  # smallest parallel exhibit


class TestOrchestrationFlags:
    def test_parallel_experiments_registered(self):
        # the exhibits whose trials fan out over --workers
        parallel = ("fig7", "fig8", "fig9", "fig10", "fig11",
                    "colo_interference")
        assert set(parallel) <= set(COMMANDS)

    def test_negative_workers_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig9", "--workers", "-1"])

    def test_workers_flag_accepted(self, capsys, monkeypatch):
        # tiny grid via the library defaults is too slow for a unit test;
        # patch the exhibit to a stub and just check flag plumbing
        import repro.__main__ as cli

        seen = {}

        def stub(args):
            seen["workers"] = args.workers
            seen["cache"] = make_cache(args.cache, args.cache_dir)
            return "ok"

        monkeypatch.setitem(cli.COMMANDS, "fig9", (stub, "stub"))
        assert main(["fig9", "--workers", "3"]) == 0
        assert seen["workers"] == 3
        assert seen["cache"] is None

    def test_cache_dir_implies_cache(self, monkeypatch, tmp_path, capsys):
        import repro.__main__ as cli

        seen = {}

        def stub(args):
            seen["cache"] = make_cache(args.cache, args.cache_dir)
            return "ok"

        monkeypatch.setitem(cli.COMMANDS, "fig9", (stub, "stub"))
        assert main(["fig9", "--cache-dir", str(tmp_path)]) == 0
        assert isinstance(seen["cache"], ResultCache)
        assert seen["cache"].dir == tmp_path

    def test_no_cache_wins_over_cache_dir(self, monkeypatch, tmp_path, capsys):
        import repro.__main__ as cli

        seen = {}

        def stub(args):
            seen["cache"] = make_cache(args.cache, args.cache_dir)
            return "ok"

        monkeypatch.setitem(cli.COMMANDS, "fig9", (stub, "stub"))
        assert main(["fig9", "--no-cache", "--cache-dir", str(tmp_path)]) == 0
        assert seen["cache"] is None


class TestRunCommand:
    def test_requires_scenario_argument(self):
        with pytest.raises(SystemExit):
            main(["run"])

    def test_unknown_scenario_name_fails_cleanly(self, capsys):
        assert main(["run", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err and "fig8" in err

    def test_runs_scenario_json_end_to_end(self, capsys, tmp_path):
        from repro.scenarios import colo_interference_spec

        spec = colo_interference_spec(max_corunners=1, scale=0.002)
        path = tmp_path / "tiny_colo.json"
        path.write_text(spec.to_json())
        assert main(["run", str(path), "--cache-dir", str(tmp_path / "c")]) == 0
        out = capsys.readouterr().out
        assert "contended channel" in out
        assert f"sha256:{spec.spec_hash()[:12]}" in out
        # rerun is a full cache hit and prints byte-identical output
        assert main(["run", str(path), "--cache-dir", str(tmp_path / "c")]) == 0
        assert capsys.readouterr().out == out

    def test_report_json_dumped(self, capsys, tmp_path):
        import json

        from repro.scenarios import colo_interference_spec

        spec = colo_interference_spec(max_corunners=1, scale=0.002)
        path = tmp_path / "tiny_colo.json"
        path.write_text(spec.to_json())
        report_path = tmp_path / "report.json"
        assert main(["run", str(path), "--report-json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["provenance"]["spec_hash"] == spec.spec_hash()
        assert report["spec"] == spec.to_dict()
        assert report["results"][0]["runners"][0]["workload"] == "stream"

    def test_missing_json_file_fails_cleanly(self, capsys):
        assert main(["run", "does/not/exist.json"]) == 2
        assert "cannot read scenario file" in capsys.readouterr().err

    def test_unknown_workload_in_file_fails_cleanly(self, capsys, tmp_path):
        import json

        from repro.scenarios import quickstart_spec

        d = json.loads(quickstart_spec().to_json())
        d["workloads"][0]["name"] = "nope"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path)]) == 2
        assert "known:" in capsys.readouterr().err

    def test_report_json_rejected_outside_run(self):
        with pytest.raises(SystemExit):
            main(["table1", "--report-json", "out.json"])

    def test_malformed_scenario_values_fail_cleanly(self, capsys, tmp_path):
        import json

        from repro.scenarios import fig9_spec

        d = json.loads(fig9_spec().to_json())
        d["sweep"]["values"] = 4096  # non-list: a bare TypeError inside
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(d))
        assert main(["run", str(path)]) == 2
        assert "malformed scenario value" in capsys.readouterr().err

    def test_grid_flags_rejected_for_run(self):
        # the grid comes from the spec; flags that would be silently
        # ignored must be refused
        for flags in (["--trials", "2"], ["--workload-scale", "0.1"],
                      ["--corunners", "2"], ["--scale", "0.5"]):
            with pytest.raises(SystemExit):
                main(["run", "fig8", *flags])


class TestScenariosCommand:
    def test_requires_list_action(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])
        with pytest.raises(SystemExit):
            main(["scenarios", "nuke"])

    def test_list_names_presets(self, capsys):
        from repro.scenarios import SCENARIO_PRESETS

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        for name, (_factory, desc) in SCENARIO_PRESETS.items():
            assert name in out and desc in out


class TestCacheSubcommand:
    def test_requires_action(self):
        with pytest.raises(SystemExit):
            main(["cache"])

    def test_bad_action_rejected(self):
        with pytest.raises(SystemExit):
            main(["cache", "nuke"])

    def test_stats_empty_cache(self, capsys, tmp_path):
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 0" in out
        assert "hits: 0" in out

    def test_stats_reflect_populated_cache(self, capsys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key("exp", {"p": 1}, 0), {"x": 1.0})
        cache.flush_stats()
        assert main(["cache", "stats", "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert "stores: 1" in out

    def test_clear(self, capsys, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(cache.key("exp", {"p": 1}, 0), {"x": 1.0})
        assert main(["cache", "clear", "--cache-dir", str(tmp_path)]) == 0
        assert "cleared 1 entries" in capsys.readouterr().out
        assert ResultCache(tmp_path).entries() == []
