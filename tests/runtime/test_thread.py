"""Thread / team tests."""

import pytest

from repro.errors import MachineError
from repro.runtime.thread import SimThread, ThreadTeam


class TestSimThread:
    def test_advance(self):
        t = SimThread(0, 0)
        t.advance(100.0)
        assert t.cycles == 100.0

    def test_no_backwards(self):
        with pytest.raises(MachineError):
            SimThread(0, 0).advance(-1)

    def test_overhead_charged_to_clock(self):
        t = SimThread(0, 0)
        t.advance(100)
        t.charge_overhead(10)
        assert t.cycles == 110
        assert t.overhead_cycles == 10

    def test_retire_counts(self):
        t = SimThread(0, 0)
        t.retire(100, n_mem=40, n_flops=10)
        assert (t.ops_retired, t.mem_ops_retired, t.flops_retired) == (100, 40, 10)

    def test_retire_validation(self):
        with pytest.raises(MachineError):
            SimThread(0, 0).retire(10, n_mem=8, n_flops=5)

    def test_negative_ids(self):
        with pytest.raises(MachineError):
            SimThread(-1, 0)


class TestThreadTeam:
    def test_pinned_to_consecutive_cores(self):
        team = ThreadTeam(4)
        assert [t.core for t in team] == [0, 1, 2, 3]

    def test_barrier_aligns_to_slowest(self):
        team = ThreadTeam(3)
        team[0].advance(10)
        team[2].advance(50)
        team.barrier()
        assert all(t.cycles == 50 for t in team)

    def test_max_cycles(self):
        team = ThreadTeam(2)
        team[1].advance(33)
        assert team.max_cycles == 33

    def test_totals(self):
        team = ThreadTeam(2)
        team[0].retire(10, 5)
        team[1].retire(20, 8, 2)
        assert team.total_ops == 30
        assert team.total_mem_ops == 13
        assert team.total_flops == 2

    def test_total_overhead(self):
        team = ThreadTeam(2)
        team[0].charge_overhead(5)
        team[1].charge_overhead(7)
        assert team.total_overhead_cycles == 12

    def test_empty_team_rejected(self):
        with pytest.raises(MachineError):
            ThreadTeam(0)


class TestRunPhase:
    """One team step per phase equals each thread's charge, advance and
    retire, float additions in that order."""

    def test_equals_the_per_thread_calls(self):
        team, alone = ThreadTeam(5), ThreadTeam(5)
        for i, (a, b) in enumerate(zip(team, alone)):
            a.cycles = b.cycles = 0.1 * (i + 1)
        overheads = [0.0, 1e-17, 0.3, 7.7e15, 0.0]
        for _ in range(3):
            team.run_phase(4, 1e16 / 3, 12, 4, 6, overheads[:4])
            for t, extra in zip(alone.threads[:4], overheads):
                t.charge_overhead(extra)
                t.advance(1e16 / 3)
                t.retire(12, 4, 6)
        for a, b in zip(team, alone):
            assert (a.cycles, a.overhead_cycles) == (b.cycles, b.overhead_cycles)
            assert (a.ops_retired, a.mem_ops_retired, a.flops_retired) == (
                b.ops_retired, b.mem_ops_retired, b.flops_retired
            )
        # the fifth thread was not active
        assert team[4].cycles == 0.5 and team[4].ops_retired == 0

    def test_without_overheads_the_threads_only_advance(self):
        team = ThreadTeam(2)
        team.run_phase(2, 10.0, 8, 2)
        assert [t.cycles for t in team] == [10.0, 10.0]
        assert team.total_overhead_cycles == 0 and team.total_ops == 16

    @pytest.mark.parametrize("kw", [
        dict(n_active=3, cycles=1.0, n_ops=1),
        dict(n_active=-1, cycles=1.0, n_ops=1),
        dict(n_active=2, cycles=-1.0, n_ops=1),
        dict(n_active=2, cycles=1.0, n_ops=1, n_mem=1, n_flops=1),
        dict(n_active=2, cycles=1.0, n_ops=-1),
        dict(n_active=2, cycles=1.0, n_ops=1, overheads=[1.0]),
        dict(n_active=2, cycles=1.0, n_ops=1, overheads=[1.0, -1.0]),
    ])
    def test_validation(self, kw):
        team = ThreadTeam(2)
        with pytest.raises(MachineError):
            team.run_phase(**kw)
        assert all(t.cycles == 0 and t.ops_retired == 0 for t in team)
