"""Colo: co-located processes on the contended DRAM channel.

Beyond-paper extension of Figs. 10-11: instead of one workload widening
its thread team, 1-4 whole processes (own SPE sessions, aux buffers,
profiles) are co-located on the simulated Altra Max and the shared
channel apportions bandwidth between them.

Shape claims checked:
* a solo STREAM saturates the channel (granted == usable); every added
  co-runner strictly cuts each STREAM's grant while the aggregate stays
  within the usable bandwidth,
* slowdown grows monotonically with the co-runner count for the
  homogeneous STREAM scenarios,
* in the mixed pairing, the low-demand CloudSuite timeline models are
  hurt less than the saturating STREAM.
"""

from conftest import orchestration_opts, save_report

from repro.scenarios import Session, colo_interference_spec
from repro.scenarios.report import render_colo


def run():
    spec = colo_interference_spec(max_corunners=4, scale=0.02)
    return Session(**orchestration_opts()).run(spec).results


def test_colo_interference(benchmark, report_dir):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(report_dir, "colo_interference", render_colo(rows))

    by_scenario = {r["scenario"]: r for r in rows}
    usable = rows[0]["usable_gibs"]

    # aggregate grant never exceeds the channel's usable bandwidth
    for row in rows:
        assert row["granted_sum_gibs"] <= usable * (1 + 1e-9), row["scenario"]
        for r in row["runners"]:
            assert r["slowdown"] >= 1.0

    # solo STREAM saturates; every co-runner strictly cuts the grant
    stream_n = {
        row["n_corunners"]: row
        for row in rows
        if set(row["scenario"].split("+")) == {"stream"}
    }
    solo_grant = stream_n[1]["runners"][0]["granted_gibs"]
    assert abs(solo_grant - usable) < 1e-6
    prev_grant, prev_slow = solo_grant, stream_n[1]["runners"][0]["slowdown"]
    for n in (2, 3, 4):
        row = stream_n[n]
        for r in row["runners"]:
            assert r["granted_gibs"] < solo_grant
        assert row["runners"][0]["granted_gibs"] < prev_grant
        assert row["runners"][0]["slowdown"] > prev_slow
        prev_grant = row["runners"][0]["granted_gibs"]
        prev_slow = row["runners"][0]["slowdown"]

    # mixed pairing: the saturating STREAM pays more than the timeline models
    mix = by_scenario["stream+pagerank+inmem_analytics"]
    stream_slow = mix["runners"][0]["slowdown"]
    for r in mix["runners"][1:]:
        assert r["slowdown"] <= stream_slow
