"""Fig. 9: impact of aux buffer size on overhead and accuracy (STREAM).

Paper claims checked:
* below 4 pages SPE produces no samples at all (and near-zero overhead),
* accuracy rises monotonically with buffer size (~93 % at 16 pages,
  > 99 % at large sizes),
* overhead is lowest at the inert 2-page point, jumps once SPE works,
  and falls again as interrupts amortise at large sizes.
"""

import pytest
from conftest import orchestration_opts, save_report

from repro.scenarios import FIG9_AUX_PAGES, Session, fig9_spec
from repro.scenarios.report import render_fig9


def run():
    spec = fig9_spec(aux_pages=FIG9_AUX_PAGES)
    return Session(**orchestration_opts()).run(spec).results


def test_fig9(benchmark, report_dir):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(report_dir, "fig9_auxbuf", render_fig9(rows))

    by_pages = {r["aux_pages"]: r for r in rows}

    # 2 pages: SPE loses everything; minimum working size is 4 pages
    assert by_pages[2]["samples"] == 0
    assert by_pages[4]["samples"] > 0
    # lowest overhead at the smallest (inert) size, then a jump
    assert by_pages[2]["overhead"] < 0.001
    assert by_pages[4]["overhead"] > 10 * by_pages[2]["overhead"]

    # accuracy rises monotonically with size and saturates high
    accs = [r["accuracy"] for r in rows]
    assert all(b >= a - 0.01 for a, b in zip(accs, accs[1:]))
    assert by_pages[16]["accuracy"] == pytest.approx(0.93, abs=0.03)
    assert by_pages[512]["accuracy"] > 0.99

    # beyond 32 pages, fewer interrupts -> lower overhead
    assert by_pages[2048]["overhead"] < by_pages[32]["overhead"]
    assert by_pages[2048]["wakeups"] < by_pages[16]["wakeups"]
