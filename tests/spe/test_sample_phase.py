"""The phase step samples every core as if the core ran alone.

:func:`repro.spe.sampler.sample_phase` takes one step per code region for
all of its cores: one op description, one level draw, one latency lookup,
one filter, one batch and one record encode over the concatenated
samples, while each core keeps its positions, its own RNG stream and its
collision scan.  Its contract is that a core's output does not depend on
which cores share the step.  Each case runs a workload's phases once
through ``sample_phase`` over all cores and once per core through
:meth:`SpeSampler.sample_stream` with a same-seeded RNG, and compares the
records, arrival cycles, counts and each RNG's state afterwards.
"""

import numpy as np
import pytest

from repro.cpu.clock import GenericTimer
from repro.cpu.pipeline import PipelineModel
from repro.machine.spec import ampere_altra_max
from repro.nmo.backends import ArmSpeBackend, FixedAuxPagesBackend
from repro.nmo.env import NmoMode, NmoSettings
from repro.spe.config import SpeConfig
from repro.spe.driver import SpeCostModel
from repro.spe.packets import encode_records
from repro.spe.records import SampleBatch
from repro.spe.sampler import SpeSampler, _cores_with, sample_phase
from repro.workloads.registry import make_workload, workload_names

#: (n_threads, scale) per workload: 2 to 4 threads, 3 leaving a
#: remainder in the OpenMP chunking
SIZES = {
    "bfs": (2, 1 / 256),
    "cfd": (3, 1 / 16384),
    "inmem_analytics": (4, 1 / 32768),
    "pagerank": (3, 1 / 8192),
    "stream": (4, 1 / 4096),
}


def make_samplers(machine, periods, track, seed=3):
    pipeline = PipelineModel(machine)
    timer = GenericTimer(machine.frequency_hz)
    config = SpeConfig.loads_and_stores()
    return [
        SpeSampler(
            period, config, pipeline, timer,
            np.random.default_rng([seed, core, period]),
            track_collisions=track,
        )
        for core, period in enumerate(periods)
    ]


def run_phases(w, samplers, together):
    """Each phase's outputs per core: all cores in one step, or each alone.

    Cores start each phase at different cycles, as after uneven
    profiling overhead.
    """
    starts = [1000.0 * core for core in range(len(samplers))]
    outs = []
    for phase in w.phases:
        active = w.phase_threads(phase)
        sources = [w.op_source(phase, t) for t in range(active)]
        if together:
            got = sample_phase(samplers[:active], sources, starts[:active])
        else:
            got = [
                s.sample_stream(src, start)
                for s, src, start in zip(samplers, sources, starts)
            ]
        outs.append(got)
        for t in range(active):
            starts[t] += phase.duration_cycles() * (1.0 + t / 7)
    return outs


def assert_same_output(a, b, ctx):
    for f in ("n_selected", "n_collisions", "n_filtered", "n_kept",
              "duration_cycles"):
        assert getattr(a, f) == getattr(b, f), (ctx, f)
    assert np.array_equal(a.arrival_cycles, b.arrival_cycles), ctx
    assert a.records.tobytes() == b.records.tobytes(), ctx
    for c in SampleBatch._COLUMNS:
        assert np.array_equal(getattr(a.batch, c), getattr(b.batch, c)), (ctx, c)


def assert_cores_run_alone(w, periods, track):
    together = make_samplers(w.machine, periods, track)
    alone = make_samplers(w.machine, periods, track)
    phase_outs = run_phases(w, together, together=True)
    solo_outs = run_phases(w, alone, together=False)
    for p, (outs, solos) in enumerate(zip(phase_outs, solo_outs)):
        for core, (a, b) in enumerate(zip(outs, solos)):
            ctx = f"phase {p} core {core}"
            assert_same_output(a, b, ctx)
            # rows are the core's records, in arrival order
            assert a.records.tobytes() == encode_records(a.batch).tobytes(), ctx
            assert (np.diff(a.arrival_cycles) >= 0).all(), ctx
    for core, (s, t) in enumerate(zip(together, alone)):
        assert s.rng.bit_generator.state == t.rng.bit_generator.state, core
        assert s._carry == t._carry, core
    return phase_outs


@pytest.mark.parametrize("track", [True, False], ids=["spe", "pebs"])
@pytest.mark.parametrize("period", [256, 4096])
@pytest.mark.parametrize("workload", sorted(SIZES))
def test_each_core_as_if_alone(workload, period, track):
    n_threads, scale = SIZES[workload]
    w = make_workload(workload, ampere_altra_max(), n_threads=n_threads,
                      scale=scale)
    outs = assert_cores_run_alone(w, [period] * n_threads, track)
    assert sum(o.n_kept for phase in outs for o in phase) > 0


def test_every_workload_is_covered():
    assert set(SIZES) == set(workload_names())


def test_only_pairs_that_straddle_two_cores_are_ignored():
    """The scan and the arrival sort run for a core with a flagged pair
    of its own rows, its first pair included; a pair that straddles two
    cores (here core 0's last row and core 2's first) flags neither."""
    starts = np.array([0, 3, 3, 6])  # core 1 selected nothing
    straddle = np.array([False, False, True, False, False])
    first_pair = np.array([False, False, False, True, False])
    assert _cores_with(straddle, starts) == []
    assert _cores_with(first_pair, starts) == [2]
    assert _cores_with(np.ones(5, dtype=bool), starts) == [0, 2]


def test_pebs_cores_are_sorted_into_arrival_order(monkeypatch):
    """Without collision tracking a core's records complete out of
    selection order, so the step sorts them; the solo runs agree."""
    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda keys: calls.append(len(keys[0])) or lexsort(keys)
    )
    w = make_workload("stream", ampere_altra_max(), n_threads=3, scale=1 / 4096)
    assert_cores_run_alone(w, [256] * 3, track=False)
    assert calls


def test_a_core_that_selects_nothing():
    w = make_workload("stream", ampere_altra_max(), n_threads=3, scale=1 / 4096)
    outs = assert_cores_run_alone(w, [256, 10**12, 256], track=True)
    assert all(phase[1].n_selected == 0 for phase in outs)
    assert all(phase[1].records.shape == (0, 64) for phase in outs)
    assert sum(phase[0].n_kept + phase[2].n_kept for phase in outs) > 0


def test_an_inert_session_counts_its_records_without_encoding():
    """A 2-page aux buffer cannot start SPE: the step leaves that core's
    records unencoded and its driver counts them lost, while the other
    cores' records are those of their solo runs."""
    machine = ampere_altra_max()
    w = make_workload("stream", machine, n_threads=3, scale=1 / 4096)
    settings = NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=256)
    pipeline = PipelineModel(machine)
    timer = GenericTimer(machine.frequency_hz)
    sessions = [
        (FixedAuxPagesBackend(aux_pages=2) if core == 1 else ArmSpeBackend())
        .open_session(
            w.process.perf, core, settings, pipeline, timer,
            np.random.default_rng([3, core, 256]), SpeCostModel(),
        )
        for core in range(3)
    ]
    encode = [not s.driver.inert for s in sessions]
    assert encode == [True, False, True]
    alone = make_samplers(machine, [256] * 3, track=True)
    phase = w.phases[0]
    sources = [w.op_source(phase, t) for t in range(3)]
    outs = sample_phase(
        [s.sampler for s in sessions], sources, [0.0] * 3, encode=encode
    )
    solos = [s.sample_stream(src) for s, src in zip(alone, sources)]

    assert outs[1].records is None and outs[1].n_kept > 0
    res = sessions[1].driver.feed(outs[1])
    assert (res.n_written, res.n_lost_stall) == (0, outs[1].n_kept)
    assert sessions[1].event.aux.head == 0
    for core in (0, 2):
        assert_same_output(outs[core], solos[core], f"core {core}")
    for s, t in zip(sessions, alone):
        assert s.sampler.rng.bit_generator.state == t.rng.bit_generator.state
