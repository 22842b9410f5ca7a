"""Figs. 10-11: thread-count sweep (STREAM, 16-page aux buffers).

Paper claims checked:
* Fig. 10: overhead grows with thread count (~0.3 % -> ~0.86 % on the
  testbed; our magnitudes differ, the growth must hold); accuracy sits
  in a narrow band, peaking near 32 threads and dipping at high counts,
* Fig. 11: sampling throttling (and collisions) blow up at high thread
  counts, explaining the accuracy dip.
"""

from conftest import orchestration_opts, save_report

from repro.scenarios import Session, fig10_spec
from repro.scenarios.report import render_fig10_fig11

THREADS = (1, 2, 4, 8, 16, 32, 48, 64, 96, 128)


def run():
    spec = fig10_spec(thread_counts=THREADS, scale=2.0)
    return Session(**orchestration_opts()).run(spec).results


def test_fig10_fig11(benchmark, report_dir):
    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    save_report(report_dir, "fig10_fig11_threads", render_fig10_fig11(rows))

    by_t = {r["threads"]: r for r in rows}

    # Fig. 10 overhead: general upward trend with thread count
    assert by_t[128]["overhead"] > by_t[1]["overhead"]
    assert by_t[64]["overhead"] > by_t[2]["overhead"]

    # Fig. 10 accuracy: narrow band, peak at a moderate count, dip at 128
    accs = {t: by_t[t]["accuracy"] for t in THREADS}
    peak_t = max(accs, key=accs.get)
    assert 8 <= peak_t <= 64
    assert accs[128] < accs[peak_t]
    assert accs[1] < accs[peak_t]
    assert all(0.8 < a <= 1.0 for a in accs.values())

    # Fig. 11: throttling appears only at high thread counts
    assert by_t[32]["throttle_events"] == 0
    assert by_t[128]["throttle_events"] > 0
    assert by_t[128]["throttled_samples"] > 0
    # collisions rise at high counts (overloaded memory latency)
    assert by_t[128]["collisions"] > by_t[16]["collisions"]
