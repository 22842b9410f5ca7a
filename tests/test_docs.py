"""Docs/packaging stay in sync with the code they describe."""

import importlib
import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.__main__ import COMMANDS

ROOT = Path(__file__).resolve().parent.parent

#: every package whose __all__ is a public contract
PUBLIC_PACKAGES = (
    "repro",
    "repro.machine",
    "repro.cpu",
    "repro.kernel",
    "repro.spe",
    "repro.runtime",
    "repro.workloads",
    "repro.nmo",
    "repro.analysis",
    "repro.scenarios",
    "repro.evalharness",
    "repro.orchestrate",
    "repro.colocation",
    "repro.serve",
    "repro.cluster",
    "repro.substrate",
)

DOC_PAGES = sorted((ROOT / "docs").glob("*.md"))


class TestCliDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "cli.md").read_text()

    def test_every_command_documented(self):
        doc = self.doc()
        for name in COMMANDS:
            assert f"`{name}`" in doc, f"{name} missing from docs/cli.md"

    def test_descriptions_match_list_output(self):
        # `python -m repro list` and docs/cli.md render the same registry
        doc = self.doc()
        for name, (_fn, desc) in COMMANDS.items():
            assert desc in doc, f"description for {name} out of sync"

    def test_orchestration_flags_documented(self):
        doc = self.doc()
        for flag in ("--workers", "--cache", "--no-cache", "--cache-dir",
                     "--trials", "--scale", "--workload-scale",
                     "--corunners", "--report-json"):
            assert flag in doc, flag

    def test_run_command_examples_present(self):
        doc = self.doc()
        assert "python -m repro run" in doc
        assert "scenarios list" in doc

    def test_cache_actions_documented(self):
        doc = self.doc()
        assert "cache stats" in doc
        assert "cache clear" in doc


class TestReadme:
    def readme(self) -> str:
        return (ROOT / "README.md").read_text()

    def test_tier1_command_present(self):
        assert "python -m pytest -x -q" in self.readme()

    def test_exhibit_matrix_covers_cli_experiments(self):
        text = self.readme()
        for name in COMMANDS:
            # fig11 is documented on the fig10 row; the rest are not
            # paper exhibits (maintenance / scenario plumbing)
            if name in ("fig11", "cache", "cluster", "run", "scenarios",
                        "serve"):
                continue
            assert f"python -m repro {name}" in text, name

    def test_exhibit_matrix_names_entry_points(self):
        text = self.readme()
        for fn_name in (
            "fig7_spec",
            "fig8_spec",
            "fig9_spec",
            "fig10_spec",
            "colo_interference_spec",
            "table1_env_defaults",
        ):
            assert fn_name in text, fn_name

    def test_orchestration_quickstart_present(self):
        text = self.readme()
        assert "--workers" in text and "cache stats" in text


class TestArchitectureDoc:
    def test_maps_every_package(self):
        doc = (ROOT / "docs" / "architecture.md").read_text()
        for pkg in ("repro.spe", "repro.kernel", "repro.machine",
                    "repro.machine.tiers",
                    "repro.nmo", "repro.workloads", "repro.evalharness",
                    "repro.orchestrate", "repro.analysis",
                    "repro.colocation", "repro.scenarios"):
            assert pkg in doc, pkg

    def test_parallel_exhibits_invariants_stated(self):
        doc = (ROOT / "docs" / "architecture.md").read_text()
        assert "byte-identical" in doc
        assert "WorkerPool" in doc


class TestPerformanceDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "performance.md").read_text()

    def test_hot_paths_mapped(self):
        doc = self.doc()
        for name in ("collision_scan", "plan_feed_epochs", "op_latencies",
                     "sample_positions", "reference_path"):
            assert name in doc, name

    def test_bench_and_gate_commands_present(self):
        doc = self.doc()
        assert "bench_substrate_json.py" in doc
        assert "check_regression.py" in doc
        assert "BENCH_substrate.baseline.json" in doc

    def test_linked_from_readme_and_architecture(self):
        assert "docs/performance.md" in (ROOT / "README.md").read_text()
        assert "performance.md" in (ROOT / "docs" / "architecture.md").read_text()

    def test_named_artifacts_exist(self):
        assert (ROOT / "benchmarks" / "bench_substrate_json.py").exists()
        assert (ROOT / "benchmarks" / "check_regression.py").exists()
        assert (
            ROOT / "benchmarks" / "baselines" / "BENCH_substrate.baseline.json"
        ).exists()

    def test_root_report_when_present_is_well_formed(self):
        # the checked-in snapshot is regenerated in place by the bench
        # and by CI; tier-1 must not fail just because it was refreshed
        import json

        report = ROOT / "BENCH_substrate.json"
        if not report.exists():
            return
        data = json.loads(report.read_text())
        assert data["schema"] == "repro-bench-substrate/1"
        assert "collision_scan_100k_overlapping" in data["entries"]

    def test_baseline_carries_speedup_floors(self):
        import json

        base = json.loads(
            (ROOT / "benchmarks" / "baselines" / "BENCH_substrate.baseline.json")
            .read_text()
        )
        entries = base["entries"]
        scan = entries["collision_scan_100k_overlapping"]
        feed = entries["spe_feed_fig9_small_aux_profile"]
        assert scan["min_speedup"] == 5.0
        assert scan["speedup_vs_reference"] >= 5.0
        assert feed["min_speedup"] == 10.0
        assert feed["speedup_vs_reference"] >= 10.0
        assert "cache_hit_row" in entries  # 2x gate only, no floor
        assert "min_speedup" not in entries["cache_hit_row"]
        assert "feed_stream_decode" in entries
        assert "serve_cache_replay" in entries

    def test_ci_workflow_has_perf_smoke_job(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "perf-smoke" in text
        assert "bench_substrate_json.py" in text
        assert "check_regression.py" in text
        assert "--max-slowdown 2.0" in text


class TestPackaging:
    def test_pyproject_exists_with_src_layout(self):
        text = (ROOT / "pyproject.toml").read_text()
        assert 'name = "repro"' in text
        assert 'where = ["src"]' in text
        assert 'repro = "repro.__main__:main"' in text

    def test_version_matches_package(self):
        text = (ROOT / "pyproject.toml").read_text()
        assert f'version = "{repro.__version__}"' in text

    def test_ci_workflow_runs_tier1_and_smoke(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "python -m pytest -x -q" in text
        assert "--cache" in text
        assert "cache stats" in text

    def test_ci_workflow_smokes_colo_exhibit(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "colo_interference" in text
        assert "--workers 2" in text

    def test_ci_workflow_runs_example_scenario(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "repro run examples/scenarios/colo_smoke.json" in text
        assert "--report-json" in text


class TestPublicApiDocumented:
    """Every exported symbol carries a docstring (satellite gate)."""

    @pytest.mark.parametrize("pkg", PUBLIC_PACKAGES)
    def test_every_export_documented(self, pkg):
        mod = importlib.import_module(pkg)
        undocumented = []
        for sym in getattr(mod, "__all__", []):
            obj = getattr(mod, sym)
            if not (
                inspect.ismodule(obj)
                or inspect.isclass(obj)
                or inspect.isfunction(obj)
            ):
                continue  # constants document themselves at the def site
            if not (getattr(obj, "__doc__", None) or "").strip():
                undocumented.append(sym)
        assert not undocumented, f"{pkg}: undocumented exports {undocumented}"

    @pytest.mark.parametrize("pkg", PUBLIC_PACKAGES)
    def test_package_docstring_present(self, pkg):
        assert (importlib.import_module(pkg).__doc__ or "").strip(), pkg


class TestDocsReferencesResolve:
    """Docs pages must not reference modules or CLI flags that do not
    exist — stale references fail the suite."""

    MODULE_REF = re.compile(r"\brepro(?:\.[a-zA-Z_][a-zA-Z0-9_]*)+")

    @staticmethod
    def resolves(path: str) -> bool:
        parts = path.split(".")
        for cut in range(len(parts), 0, -1):
            try:
                obj = importlib.import_module(".".join(parts[:cut]))
            except ImportError:
                continue
            try:
                for attr in parts[cut:]:
                    obj = getattr(obj, attr)
            except AttributeError:
                return False
            return True
        return False

    @pytest.mark.parametrize(
        "page", DOC_PAGES, ids=lambda p: p.name
    )
    def test_module_references_exist(self, page):
        bad = sorted(
            {
                ref
                for ref in self.MODULE_REF.findall(page.read_text())
                if not self.resolves(ref)
            }
        )
        assert not bad, f"{page.name} references nonexistent: {bad}"

    def known_cli_flags(self) -> set[str]:
        # flags exist in the repro CLI and in the benchmark scripts the
        # docs quote (bench_substrate_json.py --out, check_regression.py
        # --max-slowdown)
        sources = [ROOT / "src" / "repro" / "__main__.py"]
        sources += sorted((ROOT / "benchmarks").glob("*.py"))
        flags: set[str] = set()
        for src in sources:
            flags |= set(re.findall(r'"(--[a-z][a-z-]*)"', src.read_text()))
        # argparse BooleanOptionalAction generates the --no- negations
        flags |= {f"--no-{f[2:]}" for f in set(flags)}
        return flags

    def test_cli_flags_in_docs_exist(self):
        known = self.known_cli_flags()
        for page in DOC_PAGES:
            flags = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", page.read_text()))
            bad = sorted(flags - known)
            assert not bad, f"{page.name} documents unknown flags: {bad}"

    def test_readme_cli_flags_exist(self):
        known = self.known_cli_flags()
        flags = set(
            re.findall(r"(?<![\w-])--[a-z][a-z-]*", (ROOT / "README.md").read_text())
        )
        assert flags <= known, sorted(flags - known)


class TestDocsIndex:
    """docs/index.md maps every docs page and every repro subsystem."""

    def doc(self) -> str:
        return (ROOT / "docs" / "index.md").read_text()

    def test_every_docs_page_listed(self):
        doc = self.doc()
        for page in DOC_PAGES:
            if page.name == "index.md":
                continue
            assert f"({page.name})" in doc, f"{page.name} missing from index"

    def test_every_subsystem_listed(self):
        doc = self.doc()
        for pkg in PUBLIC_PACKAGES:
            if pkg == "repro":
                continue
            assert f"`{pkg}`" in doc, pkg

    def test_linked_from_readme(self):
        assert "docs/index.md" in (ROOT / "README.md").read_text()


class TestMemoryTiersDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "memory-tiers.md").read_text()

    def test_model_and_policies_documented(self):
        doc = self.doc()
        for name in (
            "MemoryTierSpec", "TieredMemory", "PagePlacement",
            "interleave", "first_touch", "hotness", "page_hotness",
            "apply_tiering", "tier_budgets",
        ):
            assert name in doc, name

    def test_worked_scenario_present(self):
        doc = self.doc()
        assert "python -m repro run tiering_sweep" in doc
        assert "tiering_sweep_spec" in doc
        assert "tiered_test_machine" in doc

    def test_calibration_invariant_stated(self):
        doc = self.doc()
        assert "byte-identical" in doc
        assert "single-stream fast path" in doc

    def test_linked_from_readme_architecture_and_scenarios(self):
        assert "docs/memory-tiers.md" in (ROOT / "README.md").read_text()
        assert "memory-tiers.md" in (ROOT / "docs" / "architecture.md").read_text()
        assert "memory-tiers.md" in (ROOT / "docs" / "scenarios.md").read_text()


class TestServingDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "serving.md").read_text()

    def test_every_op_documented(self):
        from repro.serve import OPS

        doc = self.doc()
        for op in OPS:
            assert f"`{op}`" in doc, op

    def test_every_error_code_documented(self):
        from repro.serve import ERROR_CODES

        doc = self.doc()
        for code in ERROR_CODES:
            assert f"`{code}`" in doc, code

    def test_every_job_state_documented(self):
        from repro.serve import JOB_STATES

        doc = self.doc()
        for state in JOB_STATES:
            assert state in doc, state

    def test_serve_command_and_flags_in_cli_doc(self):
        cli = (ROOT / "docs" / "cli.md").read_text()
        assert "`serve`" in cli
        for flag in ("--host", "--port", "--queue-limit"):
            assert flag in cli, flag

    def test_linked_from_index_and_architecture(self):
        assert "(serving.md)" in (ROOT / "docs" / "index.md").read_text()
        assert "serving.md" in (ROOT / "docs" / "architecture.md").read_text()

    def test_example_client_script_exists(self):
        assert (ROOT / "examples" / "serve_client.py").exists()

    def test_ci_workflow_has_serve_smoke_job(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "serve-smoke:" in text
        assert "python -m repro serve" in text
        assert "colo_smoke.json" in text


class TestClusterDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "serving.md").read_text()

    def test_cluster_section_present(self):
        doc = self.doc()
        assert "repro.cluster" in doc
        for topic in ("ShardAgent", "Coordinator", "HttpGateway",
                      "quota", "replication", "tenant"):
            assert topic in doc, topic

    def test_cluster_ops_documented(self):
        from repro.cluster import ShardAgent

        doc = self.doc()
        for op in ShardAgent.OPS:
            assert f"`{op}`" in doc, op

    def test_http_routes_documented(self):
        from repro.cluster import ROUTES

        doc = self.doc()
        for op, (method, path) in ROUTES.items():
            assert f"| `{method} {path}` | `{op}`" in doc, op

    def test_cluster_command_and_flags_in_cli_doc(self):
        cli = (ROOT / "docs" / "cli.md").read_text()
        assert "`cluster`" in cli
        for flag in ("--agents", "--http-port",
                     "--quota-capacity", "--quota-refill"):
            assert flag in cli, flag

    def test_example_client_script_exists(self):
        assert (ROOT / "examples" / "cluster_client.py").exists()

    def test_ci_workflow_has_cluster_smoke_job(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "cluster-smoke:" in text
        assert "python -m repro cluster agent" in text
        assert "python -m repro cluster coordinator" in text
        assert "colo_smoke.json" in text
        assert "cache_hits" in text


class TestResilienceDoc:
    """The Resilience section documents exactly what the code exposes."""

    def doc(self) -> str:
        return (ROOT / "docs" / "serving.md").read_text()

    def test_resilience_section_present(self):
        assert "## Resilience" in self.doc()

    def test_every_agent_state_documented(self):
        from repro.cluster import AGENT_STATES

        doc = self.doc()
        for state in AGENT_STATES:
            assert f"`{state}`" in doc, state

    def test_membership_ops_documented(self):
        from repro.cluster import Coordinator
        from repro.serve import OPS

        doc = self.doc()
        for op in Coordinator.OPS:
            if op not in OPS:  # the membership extensions
                assert f"`{op}`" in doc, op

    def test_agents_http_routes_documented(self):
        from repro.cluster import ROUTES

        doc = self.doc()
        for op, (method, path) in ROUTES.items():
            if op.startswith("agents_"):
                assert f"`{method} {path}`" in doc, op

    def test_journal_record_types_documented(self):
        from repro.cluster.journal import RECORD_TYPES

        doc = self.doc()
        for rtype in RECORD_TYPES:
            assert f"`{rtype}`" in doc, rtype

    def test_retry_policy_knobs_documented(self):
        import dataclasses

        from repro.serve import RetryPolicy

        doc = self.doc()
        for f in dataclasses.fields(RetryPolicy):
            assert f"`{f.name}" in doc, f.name

    def test_resilience_flags_in_cli_doc(self):
        cli = (ROOT / "docs" / "cli.md").read_text()
        for flag in ("--journal", "--resume", "--probe-interval",
                     "--coordinator", "--join", "--leave"):
            assert flag in cli, flag
        assert "cluster agents" in cli

    def test_ci_workflow_has_chaos_smoke_job(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "chaos-smoke:" in text
        assert "--journal" in text
        assert "--resume" in text
        assert "SIGKILL" in text


class TestRunnableDocsCi:
    """CI executes every example and scenario file, so snippets can't rot."""

    def workflow(self) -> str:
        return (ROOT / ".github" / "workflows" / "ci.yml").read_text()

    def test_docs_examples_job_present(self):
        text = self.workflow()
        assert "docs-examples:" in text
        assert "examples/*.py" in text
        assert "examples/scenarios/*.json" in text
        assert "python -m repro run" in text

    def test_every_example_is_a_script(self):
        for example in sorted((ROOT / "examples").glob("*.py")):
            text = example.read_text()
            assert '__name__ == "__main__"' in text, example.name

    def test_every_scenario_file_loads(self):
        from repro.scenarios import ScenarioSpec

        for path in sorted((ROOT / "examples" / "scenarios").glob("*.json")):
            ScenarioSpec.from_file(path)  # raises on rot


class TestScenariosDoc:
    def doc(self) -> str:
        return (ROOT / "docs" / "scenarios.md").read_text()

    def test_schema_keys_documented(self):
        doc = self.doc()
        for key in ("name", "kind", "machine", "workloads", "settings",
                    "sweep", "colocation", "trials", "seed"):
            assert f"`{key}`" in doc, key

    def test_every_kind_documented(self):
        from repro.scenarios import KINDS

        doc = self.doc()
        for kind in KINDS:
            assert kind in doc, kind

    def test_kind_table_mirrors_kind_rules(self):
        from repro.scenarios.spec import KIND_RULES

        lines = self.doc().split("| Kind | Block |", 1)[1].splitlines()[2:]
        rows = {}
        for line in lines:
            if not line.startswith("|"):
                break
            cells = [c.strip() for c in line.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells
        assert list(rows) == list(KIND_RULES)
        for kind, rule in KIND_RULES.items():
            _, block, workloads, scale, trials, period = rows[kind]
            assert block.startswith(f"`{rule.block}`" if rule.block else "—")
            assert rule.axis is None or f"`{rule.axis}`" in block, kind
            assert workloads == rule.workloads, kind
            assert scale.startswith("yes" if rule.explicit_scale else "no")
            assert trials == ("1" if rule.single_trial else "any"), kind
            source = (
                rule.periods_from
                or ("NMO_PERIOD" if rule.period_only else "settings")
            )
            assert f"`{source}`" in period, kind

    def test_migration_table_names_every_preset(self):
        doc = self.doc()
        for name in (
            "fig7_spec", "fig8_spec", "fig9_spec", "fig10_spec",
            "colo_interference_spec",
        ):
            assert name in doc, name

    def test_example_scenario_file_exists_and_loads(self):
        from repro.scenarios import ScenarioSpec

        for path in sorted((ROOT / "examples" / "scenarios").glob("*.json")):
            spec = ScenarioSpec.from_file(path)
            assert ScenarioSpec.from_json(spec.to_json()) == spec, path.name

    def test_readme_mentions_declarative_api(self):
        text = (ROOT / "README.md").read_text()
        assert "repro.scenarios" in text or "docs/scenarios.md" in text
        assert "python -m repro run" in text


class TestSamplingDoc:
    """docs/sampling.md tracks the strategy registry, the bias metrics,
    and the zoo tooling — adding a strategy or metric without
    documenting it fails here."""

    def doc(self) -> str:
        return (ROOT / "docs" / "sampling.md").read_text()

    def test_every_strategy_documented(self):
        from repro.spe.strategies import STRATEGIES

        doc = self.doc()
        for name in STRATEGIES:
            assert f"`{name}`" in doc, name

    def test_every_bias_metric_documented(self):
        import dataclasses

        from repro.analysis.sampling import SamplingBias

        doc = self.doc()
        for field in dataclasses.fields(SamplingBias):
            assert f"`{field.name}`" in doc, field.name

    def test_worked_scenario_present(self):
        doc = self.doc()
        assert "python -m repro run sampling_zoo" in doc
        assert "sampling_accuracy" in doc
        assert "sampling_zoo_spec" in doc

    def test_linked_from_index_readme_and_scenarios(self):
        assert "(sampling.md)" in (ROOT / "docs" / "index.md").read_text()
        assert "docs/sampling.md" in (ROOT / "README.md").read_text()
        assert "sampling.md" in (ROOT / "docs" / "scenarios.md").read_text()

    def test_placement_example_exists(self):
        assert (ROOT / "examples" / "sampling_placement.py").exists()

    def test_ci_workflow_has_sampling_smoke_job(self):
        text = (ROOT / ".github" / "workflows" / "ci.yml").read_text()
        assert "sampling-smoke:" in text
        assert "python -m repro run sampling_zoo" in text

    def test_baseline_carries_zoo_entries(self):
        import json

        from repro.spe.strategies import STRATEGIES

        base = json.loads(
            (ROOT / "benchmarks" / "baselines" / "BENCH_substrate.baseline.json")
            .read_text()
        )
        entries = base["entries"]
        assert entries["sampling_zoo_small"]["metric"] == "seconds"
        for name in STRATEGIES:
            assert f"sampling_positions_{name}" in entries, name
