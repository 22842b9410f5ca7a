"""Experiment harness tests (small configurations)."""

import numpy as np
import pytest

from repro.evalharness.experiments import (
    colo_interference,
    colo_scenarios,
    fig4_stream_regions,
    fig5_cfd_single_thread,
    fig6_cfd_32_threads,
    fig7_samples_vs_period,
    fig10_fig11_threads,
    table1_env_defaults,
    table2_machine_spec,
)
from repro.evalharness.report import (
    render_colo,
    render_fig7,
    render_fig9,
    render_fig10_fig11,
    render_sweep_table,
)


class TestTables:
    def test_table1_matches_paper(self):
        t = table1_env_defaults()
        assert t == {
            "NMO_ENABLE": "off",
            "NMO_NAME": "nmo",
            "NMO_MODE": "none",
            "NMO_PERIOD": "0",
            "NMO_TRACK_RSS": "off",
            "NMO_BUFSIZE": "1",
            "NMO_AUXBUFSIZE": "1",
        }

    def test_table2_rows(self):
        t = table2_machine_spec()
        assert t["Frequency"] == "3.0 GHz"
        assert t["Mem. capacity"] == "256 GB"


class TestRegionExperiments:
    def test_fig4_has_tags_and_spans(self):
        out = fig4_stream_regions(n_threads=4, n_elems=1 << 15, period=512)
        assert {b[0] for b in out["bands"]} == {"a", "b", "c"}
        assert out["triad_spans"]
        assert out["times"].size > 100

    def test_fig5_single_thread_continuous(self):
        out = fig5_cfd_single_thread(n_elems=1 << 13, period=512)
        # one thread: every object trivially "splits" across threads
        assert out["result"].n_threads == 1
        assert out["times"].size > 50

    def test_fig6_split_scores(self):
        out = fig6_cfd_32_threads(n_elems=1 << 14, period=256)
        scores = out["split_scores"]
        assert scores["normals"] > scores["variables"]
        assert "hires" in out
        hr = out["hires"]
        assert hr["times"].size < out["times"].size

    def test_fig6_hires_window_bounds(self):
        out = fig6_cfd_32_threads(n_elems=1 << 14, period=256)
        hr = out["hires"]
        assert (hr["times"] >= hr["t0"]).all()
        assert (hr["times"] < hr["t1"]).all()


class TestSweepExperiments:
    def test_unknown_workload_raises_registry_error(self):
        # lookups resolve through repro.workloads.registry everywhere,
        # so the error names the known workloads instead of a KeyError
        from repro.errors import WorkloadError

        with pytest.raises(WorkloadError, match="known:"):
            fig7_samples_vs_period(
                periods=(2048,), trials=1, workloads=("nope",), scale=0.1
            )

    def test_fig7_small(self):
        res = fig7_samples_vs_period(
            periods=(2048, 8192), trials=2, workloads=("bfs",), scale=0.2
        )
        pts = res["bfs"]
        assert len(pts) == 2
        assert pts[0].samples_mean > pts[1].samples_mean
        assert len(pts[0].samples_trials) == 2

    def test_fig10_small(self):
        rows = fig10_fig11_threads(thread_counts=(2, 8), scale=0.25)
        assert [r["threads"] for r in rows] == [2, 8]
        assert all(r["samples"] > 0 for r in rows)


class TestColoInterference:
    def test_scenarios_sweep_corunner_counts(self):
        scen = colo_scenarios(4)
        assert ("stream",) in scen
        assert ("stream", "stream") in scen
        assert ("stream", "pagerank") in scen
        assert ("stream", "pagerank", "inmem_analytics", "stream") in scen
        assert max(len(s) for s in scen) == 4
        with pytest.raises(ValueError):
            colo_scenarios(0)

    def test_scenarios_distinct_beyond_mix_length(self):
        scen = colo_scenarios(6)
        assert len(scen) == len(set(scen))  # the mix cycles, never repeats
        assert ("stream", "pagerank", "inmem_analytics", "stream",
                "stream") in scen

    def test_exhibit_shapes(self):
        rows = colo_interference(
            max_corunners=2, scale=0.002, period=65536, n_threads=4
        )
        assert [r["scenario"] for r in rows] == [
            "stream", "stream+stream", "stream+pagerank",
        ]
        usable = rows[0]["usable_gibs"]
        for row in rows:
            assert len(row["runners"]) == row["n_corunners"]
            assert row["granted_sum_gibs"] <= usable * (1 + 1e-9)
            for r in row["runners"]:
                assert r["slowdown"] >= 1.0
                assert r["samples"] > 0
        solo = rows[0]["runners"][0]
        duo = rows[1]["runners"]
        # 4 STREAM threads do not saturate alone; two teams do, so each
        # duo runner is granted strictly less than the solo runner
        for r in duo:
            assert r["granted_gibs"] < solo["granted_gibs"]
            assert r["slowdown"] > solo["slowdown"]

    def test_render_colo(self):
        rows = [
            {
                "scenario": "stream", "n_corunners": 1, "wall_seconds": 0.1,
                "granted_sum_gibs": 150.0, "usable_gibs": 158.3,
                "runners": [
                    {"workload": "stream", "slowdown": 1.0,
                     "demand_gibs": 178.8, "granted_gibs": 158.3,
                     "accuracy": 0.96, "overhead": 0.001,
                     "collisions": 0, "samples": 1000},
                ],
            },
            {
                "scenario": "stream+stream", "n_corunners": 2,
                "wall_seconds": 0.2, "granted_sum_gibs": 158.0,
                "usable_gibs": 158.3,
                "runners": [
                    {"workload": "stream", "slowdown": 2.0,
                     "demand_gibs": 178.8, "granted_gibs": 79.2,
                     "accuracy": 0.96, "overhead": 0.001,
                     "collisions": 3, "samples": 990},
                ] * 2,
            },
        ]
        txt = render_colo(rows)
        assert "contended channel" in txt
        assert "stream+stream" in txt
        assert "2.00x" in txt
        assert "slowdown" in txt


class TestRendering:
    def test_render_sweep_table(self):
        res = fig7_samples_vs_period(
            periods=(4096,), trials=1, workloads=("bfs",), scale=0.1
        )
        txt = render_sweep_table(res["bfs"], "t")
        assert "bfs" in txt and "4096" in txt

    def test_render_fig7(self):
        res = fig7_samples_vs_period(
            periods=(2048, 8192), trials=1, workloads=("bfs",), scale=0.1
        )
        txt = render_fig7(res)
        assert "log10(samples)" in txt

    def test_render_fig9(self):
        rows = [
            {"aux_pages": 2, "accuracy": 0.0, "overhead": 0.0001,
             "samples": 0, "wakeups": 0, "working": False},
            {"aux_pages": 16, "accuracy": 0.93, "overhead": 0.002,
             "samples": 100, "wakeups": 3, "working": True},
        ]
        txt = render_fig9(rows)
        assert "aux buffer" in txt and "93.0%" in txt

    def test_render_fig10(self):
        rows = [
            {"threads": 1, "accuracy": 0.9, "overhead": 0.003,
             "collisions": 0, "throttle_events": 0, "samples": 10,
             "throttled_samples": 0, "wakeups": 1},
            {"threads": 128, "accuracy": 0.87, "overhead": 0.009,
             "collisions": 50, "throttle_events": 4, "samples": 9,
             "throttled_samples": 5, "wakeups": 128},
        ]
        txt = render_fig10_fig11(rows)
        assert "thread sweep" in txt
