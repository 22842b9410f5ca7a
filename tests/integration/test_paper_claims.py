"""Integration tests for the paper's headline quantitative claims.

Each test reproduces one sentence of the paper's abstract/evaluation on
the simulated testbed at reduced scale.  Absolute values are allowed to
differ (different substrate); orderings and knees must hold.
"""

import numpy as np
import pytest

from repro.machine.spec import GiB, ampere_altra_max
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.scenarios import Session, fig9_spec
from repro.workloads.bfs import BfsWorkload
from repro.workloads.cfd import CfdWorkload
from repro.workloads.stream import StreamWorkload

MACHINE = ampere_altra_max()
SCALES = {"stream": 1 / 32, "cfd": 1 / 256, "bfs": 0.5}
CLASSES = {"stream": StreamWorkload, "cfd": CfdWorkload, "bfs": BfsWorkload}


def run(name, period, seed=0, threads=32, aux_mib=1):
    w = CLASSES[name](MACHINE, n_threads=threads, scale=SCALES[name])
    s = NmoSettings(
        enable=True, mode=NmoMode.SAMPLING, period=period, auxbufsize_mib=aux_mib
    )
    return NmoProfiler(w, s, seed=seed).run()


@pytest.fixture(scope="module")
def sweep():
    """One shared sweep over the three workloads and key periods."""
    out = {}
    for name in ("stream", "cfd", "bfs"):
        out[name] = {p: run(name, p) for p in (1000, 2000, 4000, 16000)}
    return out


class TestAbstractClaims:
    def test_high_accuracy_at_3000_4000(self, sweep):
        """'At 3000 and 4000 sampling periods, the ARM SPE profiling
        achieves the highest accuracy above 94%' (STREAM/BFS; CFD's knee
        sits slightly later in our substrate)."""
        for name in ("stream", "bfs"):
            assert sweep[name][4000].accuracy > 0.94, name

    def test_low_overhead_at_4000(self, sweep):
        """'at a time overhead of 0.2%-3.3%'."""
        for name in ("stream", "cfd", "bfs"):
            assert 0.001 < sweep[name][4000].time_overhead < 0.04, name

    def test_small_periods_cause_drops(self, sweep):
        """'sampling periods lower than 2000 cause significant sample
        drops and low accuracy'."""
        for name in ("stream", "cfd"):
            assert sweep[name][1000].accuracy < sweep[name][4000].accuracy - 0.05


class TestFig7Claims:
    def test_linear_scaling_with_period(self, sweep):
        for name in ("stream", "bfs"):
            s4, s16 = (
                sweep[name][4000].samples_processed,
                sweep[name][16000].samples_processed,
            )
            assert s4 / s16 == pytest.approx(4.0, rel=0.15), name
        # CFD still collides at 4000 (its knee is later), so its ratio
        # falls short of ideal — the Fig. 7 deviation the paper discusses
        c4, c16 = (
            sweep["cfd"][4000].samples_processed,
            sweep["cfd"][16000].samples_processed,
        )
        assert 3.0 < c4 / c16 < 4.1

    def test_smallest_period_deviates_from_linear(self, sweep):
        """Collision/drop losses bend the curve at small periods for the
        bandwidth-bound workloads."""
        for name in ("stream", "cfd"):
            s1, s4 = (
                sweep[name][1000].samples_processed,
                sweep[name][4000].samples_processed,
            )
            assert s1 / s4 < 3.6, name  # ideal would be 4.0

    def test_trials_vary_at_small_period(self):
        """Five-trial spread exists at small periods (collision cascades
        depend on the perturbation draws).  The *magnitude* of the
        paper's variance blow-up additionally involves OS noise we do not
        model."""
        runs = [run("cfd", 1000, seed=s) for s in range(4)]
        samples = [r.samples_processed for r in runs]
        collisions = [r.collisions for r in runs]
        assert len(set(samples)) > 1
        assert np.std(collisions) > 0


class TestFig8Claims:
    def test_collision_ordering_cfd_gt_stream_gt_bfs(self, sweep):
        """'the sample collision reaches up to even 510 and 1780 in
        STREAM and CFD respectively while that keeps below 10 in BFS'."""
        c = {n: sweep[n][1000].collisions for n in ("stream", "cfd", "bfs")}
        assert c["cfd"] > c["stream"] > c["bfs"]
        assert c["bfs"] < 10

    def test_collisions_decrease_with_period(self, sweep):
        for name in ("stream", "cfd"):
            cols = [sweep[name][p].collisions for p in (1000, 2000, 4000, 16000)]
            assert cols[0] > cols[-1]
            assert sorted(cols, reverse=True) == cols

    def test_bfs_overhead_highest_below_4000(self, sweep):
        """'BFS has the largest time overhead at sampling periods below
        4000 because it has the highest amount of samples' per second."""
        for p in (1000, 2000):
            assert (
                sweep["bfs"][p].time_overhead
                > sweep["stream"][p].time_overhead
            )
            assert sweep["bfs"][p].time_overhead > sweep["cfd"][p].time_overhead

    def test_bfs_accuracy_prominently_higher_at_small_periods(self, sweep):
        assert sweep["bfs"][1000].accuracy > sweep["stream"][1000].accuracy + 0.03
        assert sweep["bfs"][1000].accuracy > sweep["cfd"][1000].accuracy + 0.2

    def test_overhead_decreases_with_period(self, sweep):
        for name in ("stream", "cfd", "bfs"):
            ovh = [sweep[name][p].time_overhead for p in (1000, 4000, 16000)]
            assert ovh[0] > ovh[1] > ovh[2]


def fig9_rows(aux_pages):
    return Session().run(fig9_spec(aux_pages=aux_pages, scale=0.2)).results


class TestFig9Claims:
    def test_spe_needs_four_pages(self):
        rows = fig9_rows((2, 4))
        assert rows[0]["samples"] == 0           # 2 pages: loses everything
        assert rows[1]["samples"] > 0            # 4 pages: minimum working

    def test_accuracy_rises_with_buffer(self):
        rows = fig9_rows((4, 16, 64))
        accs = [r["accuracy"] for r in rows]
        assert accs[0] < accs[1] < accs[2]

    def test_overhead_falls_with_buffer_beyond_minimum(self):
        rows = fig9_rows((4, 32, 512))
        ovh = [r["overhead"] for r in rows]
        assert ovh[0] > ovh[1] > ovh[2]


class TestFig2Claims:
    def test_capacity_peaks(self):
        from repro.evalharness.experiments import fig2_capacity

        out = fig2_capacity(scale=0.05)
        assert out["inmem_analytics"]["peak_gib"] == pytest.approx(52.3, rel=0.03)
        assert out["pagerank"]["peak_gib"] == pytest.approx(123.8, rel=0.03)
        assert out["inmem_analytics"]["peak_utilisation"] == pytest.approx(
            0.204, abs=0.01
        )
        assert out["pagerank"]["peak_utilisation"] == pytest.approx(0.484, abs=0.01)


class TestFig3Claims:
    def test_bandwidth_shapes(self):
        from repro.evalharness.experiments import fig3_bandwidth

        out = fig3_bandwidth(scale=0.05)
        ima = out["inmem_analytics"]
        pr = out["pagerank"]
        assert ima["peak_gibs"] == pytest.approx(97.0, rel=0.1)
        assert pr["peak_gibs"] == pytest.approx(118.0, rel=0.1)
        # PageRank's spike happens during the early load phase
        assert pr["time_of_peak_s"] < 0.3 * pr["duration_s"]
        # IMA alternates with a ~15 s period (scaled)
        assert ima["period_s"] == pytest.approx(15.0 * 0.05, rel=0.25)
