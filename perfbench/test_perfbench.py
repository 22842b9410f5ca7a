"""Unit tests for the benchmark's own arithmetic: spans, percentiles, failures."""

from __future__ import annotations

import os
import pickle
import sys
import types

import pytest

from perfbench.layers import covered_share, load, per_layer, self_times, union_length
from perfbench.stats import Tally, beyond, percentile, rank, supported
from perfbench.tracer import Tracer
from perfbench.yardstick import measure


# -- span self-time arithmetic ---------------------------------------------


def test_self_time_subtracts_nested_children():
    rows = [
        [1, 0, "a", None, 0, 100, None],
        [2, 1, "b", None, 10, 40, None],
        [3, 1, "c", None, 50, 60, None],
        [4, 2, "d", None, 15, 25, None],
    ]
    assert self_times(rows) == {1: 60, 2: 20, 3: 10, 4: 10}


def test_self_time_ignores_children_outside_the_parent():
    # a generator span created under a parent may outlive it
    rows = [
        [1, 0, "a", None, 0, 10, None],
        [2, 1, "gen", None, 5, 50, None],
        [3, 1, "instant", None, 7, 7, None],
    ]
    assert self_times(rows) == {1: 10, 2: 45, 3: 0}


def test_union_and_coverage():
    assert union_length([(0, 10), (5, 15), (20, 30)]) == 25
    assert union_length([]) == 0
    windows = [(0, 100), (50, 150)]
    cover = [(10, 20), (15, 30), (140, 200)]
    assert covered_share(windows, cover) == pytest.approx(30 / 150)
    assert covered_share([], cover) == 0.0


def _proc(role, pid, spans):
    return {"role": role, "pid": pid, "spans": spans}


def test_per_layer_matches_across_processes():
    key = "k" * 64
    bench = _proc("bench", 1, [
        [1, 0, "bench.job", "job-1", 0, 1000, None],
        [2, 1, "serve.client", "job-1", 0, 50, None],
        [3, 1, "serve.row_recv", "job-1", 700, 700, {"index": 0}],
    ])
    server = _proc("server", 2, [
        [1, 0, "serve.queue_submit", "job-1", 40, 45, {"keys": [key]}],
        [2, 0, "orchestrate.pool_submit", key, 60, 70, None],
        [3, 0, "serve.land_row", "job-1", 600, 610, {"index": 0, "cached": 0}],
    ])
    worker = _proc("server-worker", 3, [
        [1, 0, "scenarios.trial", key, 100, 500, None],
        [2, 1, "nmo.run", None, 150, 450, None],
        [3, 2, "spe.sample", None, 200, 210, {"n": 100}],
    ])
    m, n = per_layer(load([bench, server, worker]), "server", overhead_ratio=0.5)
    ms = 1e-6
    assert m["orchestrate.pool_wait_p50_ms"] == pytest.approx(30 * ms)
    assert m["serve.queue_wait_p50_ms"] == pytest.approx(25 * ms)  # 45 -> 70
    assert m["serve.row_delivery_p50_ms"] == pytest.approx(90 * ms)
    assert m["nmo.run_ms"] == pytest.approx(300 * ms)
    assert m["nmo.self_ms"] == pytest.approx(290 * ms)
    assert m["nmo.ns_per_sample"] == pytest.approx(3.0)
    assert m["spe.samples_selected"] == 100
    assert m["serve.fast_path_ratio"] == 0.0
    assert m["trace.overhead_ratio"] == 0.5
    # first row: submit 0 -> trial 100 -> trial end 500 -> land 610 -> recv 700
    parts = [m[f"first_row.{p}_p50_ms"] for p in ("to_trial", "trial", "to_land", "delivery")]
    assert parts == pytest.approx([100 * ms, 400 * ms, 110 * ms, 90 * ms])
    assert sum(parts) == pytest.approx(700 * ms)
    assert n["first_row.trial_p50_ms"] == 1
    # layer spans cover 40-45, 60-70, 100-500 and 600-610 of the 0-1000 job
    assert m["trace.residual_ratio"] == pytest.approx(1 - 425 / 1000)


# -- percentiles and the sample-count rule ----------------------------------


def test_rank_is_exact_nearest_rank():
    assert rank(100, 90) == 90  # no float round-up to 91
    assert rank(10, 50) == 5
    assert rank(1, 90) == 1
    assert rank(3, 50) == 2
    with pytest.raises(ValueError):
        rank(0, 50)


def test_percentile_picks_a_sample():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50
    assert percentile(values, 90) == 90
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0


def test_p90_needs_a_hundred_samples_for_ten_beyond():
    assert beyond(100, 90) == 10 and supported(100, 90)
    assert beyond(99, 90) == 9 and not supported(99, 90)
    assert supported(20, 50) and not supported(19, 50)


# -- failure accounting ------------------------------------------------------


def test_tally_counts_failures_and_wrong_results():
    t = Tally()
    t.ok()
    t.ok()
    t.fail("timeout")
    t.wrong("results differ")  # one of the ok operations was wrong
    assert (t.attempted, t.failed, t.wrong_results) == (3, 2, 1)
    assert t.fail_ratio == pytest.approx(2 / 3)
    other = Tally()
    other.fail("leak")
    t.merge(other)
    assert (t.attempted, t.failed, t.wrong_results) == (4, 3, 1)
    assert t.reasons == {"timeout": 1, "results differ": 1, "leak": 1}
    assert Tally().fail_ratio == 0.0


# -- tracer ------------------------------------------------------------------


def test_wrap_records_nesting_trace_and_attrs(tmp_path):
    t = Tracer("bench", tmp_path)
    inner = t.wrap(lambda x: x * 2, "inner", attrs=lambda a, k, r, s: {"n": r})
    outer = t.wrap(lambda x: inner(x) + 1, "outer",
                   trace=lambda a, k, r: f"job-{a[0]}")
    assert outer(3) == 7
    (i_sid, i_parent, i_name, _, i0, i1, i_attrs), (o_sid, o_parent, *_rest) = t.spans
    assert (i_name, i_parent, i_attrs) == ("inner", o_sid, {"n": 6})
    assert o_parent == 0 and t.spans[1][3] == "job-3"
    assert t.spans[1][4] <= i0 <= i1 <= t.spans[1][5]


def test_wrap_records_a_failing_call(tmp_path):
    t = Tracer("bench", tmp_path)

    def boom():
        raise KeyError("x")

    wrapped = t.wrap(boom, "boom", trace=lambda a, k, r: r,
                     attrs=lambda a, k, r, s: {"never": 1})
    with pytest.raises(KeyError):
        wrapped()
    assert t.spans[0][2:4] == ("boom", None) and t.spans[0][6] is None
    assert t.current() == 0


def test_wrap_gen_spans_creation_to_exhaustion(tmp_path):
    t = Tracer("bench", tmp_path)
    seen = []
    gen = t.wrap_gen(lambda n: iter(range(n)), "stream",
                     trace=lambda a, k, r: "job-1",
                     on_item=lambda tid, item: seen.append((tid, item)))
    assert list(gen(3)) == [0, 1, 2]
    assert seen == [("job-1", 0), ("job-1", 1), ("job-1", 2)]
    assert [s[2:4] for s in t.spans] == [("stream", "job-1")]


def test_wrapped_module_function_still_pickles_by_reference(tmp_path):
    mod = types.ModuleType("perfbench_pickle_probe")
    exec("def trial(x):\n    return x + 1\n", mod.__dict__)
    sys.modules[mod.__name__] = mod
    try:
        mod.trial = Tracer("bench", tmp_path).wrap(mod.trial, "scenarios.trial")
        assert pickle.loads(pickle.dumps(mod.trial)) is mod.trial
    finally:
        del sys.modules[mod.__name__]


def test_flush_writes_spans_and_resets(tmp_path):
    t = Tracer("server", tmp_path)
    with t.span("bench.job") as root:
        root.trace = "job-9"
    path = t.flush()
    assert path.parent == tmp_path and t.spans == []
    from perfbench.tracer import load_spans

    (proc,) = load_spans(tmp_path)
    assert proc["role"] == "server" and proc["spans"][0][2:4] == ["bench.job", "job-9"]


# -- host-speed yardstick ----------------------------------------------------


def test_yardstick_restores_the_affinity_it_pins():
    cpus = os.sched_getaffinity(0)
    assert measure() > 0
    assert os.sched_getaffinity(0) == cpus
