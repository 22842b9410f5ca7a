"""Fig. 8: accuracy (Eq. 1), time overhead, and sample collisions vs
sampling period for STREAM, CFD, BFS.

Paper claims checked:
* accuracy rises sharply below ~3000-4000 then stabilises at 94 %+,
* STREAM/CFD collide heavily at small periods (CFD worst), BFS < 10,
* BFS pays the highest overhead below 4000 (highest sample rate),
* overhead falls roughly as 1/period.
"""

import numpy as np
from conftest import orchestration_opts, save_report

from repro.scenarios import Session, fig8_spec
from repro.scenarios.report import render_fig8

PERIODS = (1000, 2000, 4000, 8000, 16000, 32000, 64000, 128000)
TRIALS = 5
SCALES = {"stream": 1 / 64, "cfd": 1 / 512, "bfs": 0.25}


def run():
    out = {}
    session = Session(**orchestration_opts())
    for name, scale in SCALES.items():
        spec = fig8_spec(
            periods=PERIODS, trials=TRIALS, workloads=(name,), scale=scale
        )
        out.update(session.run(spec).results)
    return out


def test_fig8(benchmark, report_dir):
    results = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(report_dir, "fig8_accuracy_overhead_collisions",
                render_fig8(results))

    acc = {n: {p.period: p.accuracy_mean for p in pts}
           for n, pts in results.items()}
    ovh = {n: {p.period: p.overhead_mean for p in pts}
           for n, pts in results.items()}
    coll = {n: {p.period: p.collisions_mean for p in pts}
            for n, pts in results.items()}

    # accuracy: sharp rise below 4000, stable and high beyond
    for name in ("stream", "cfd"):
        assert acc[name][1000] < acc[name][4000]
        assert acc[name][8000] > 0.9
    assert acc["stream"][4000] > 0.94
    assert acc["bfs"][4000] > 0.94

    # BFS prominently higher at small periods
    assert acc["bfs"][1000] > acc["stream"][1000]
    assert acc["bfs"][1000] > acc["cfd"][1000] + 0.2

    # collisions: CFD > STREAM >> BFS, decreasing with period
    assert coll["cfd"][1000] > coll["stream"][1000] > coll["bfs"][1000]
    assert coll["bfs"][1000] < 10
    for name in ("stream", "cfd"):
        series = [coll[name][p] for p in PERIODS]
        assert series[0] > series[-1]
        assert series[-1] == 0

    # overhead: BFS highest below 4000; everyone decays with period
    for p in (1000, 2000):
        assert ovh["bfs"][p] > ovh["stream"][p]
        assert ovh["bfs"][p] > ovh["cfd"][p]
    for name in ("stream", "cfd", "bfs"):
        series = np.array([ovh[name][p] for p in PERIODS])
        assert series[0] > series[-1]
        assert series[-1] < 0.002  # sub-0.2% at period 128000
