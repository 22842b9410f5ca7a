"""Every benchmark input, generated from the one ``--seed`` argument.

The program under test only ever sees the specs built here.  The same
seed always yields the same exhibit grid and the same client job lists.
"""

from __future__ import annotations

import random

from repro.nmo.env import NmoMode, NmoSettings
from repro.scenarios.presets import fig9_spec, fig10_spec, sampling_zoo_spec
from repro.scenarios.spec import ScenarioSpec, SweepAxis, WorkloadSpec

#: the seed whose exhibit reports are pinned in ``digests.json``
DEFAULT_SEED = 1

#: serve/cluster jobs: positions per client list, and their classes
LIST_LENGTH = 20
REPLAY_SLOTS = 12   # replays of specs filled into the cache during setup
SHARED_SLOTS = 2    # cold specs at the same position in both clients' lists
REPLAY_SPECS = 8    # distinct specs in the replay share


def derive_seed(*parts) -> int:
    """A 31-bit seed derived from the benchmark seed and grid coordinates."""
    return random.Random(":".join(map(str, parts))).randrange(2**31)


def exhibit_grid(seed: int) -> list[ScenarioSpec]:
    """Reduced-scale Fig. 8 / Fig. 9 / Fig. 10 exhibits and the zoo preset.

    * period sweep at 32 threads (STREAM and BFS in one job, CFD in
      another): a collision-heavy, a middle and a sparse period (loads
      ``collision_scan``);
    * aux sweep at period 1024: the non-working 2 pages, the
      interrupt-bound 4 and one large buffer (loads ``SpeDriver.feed``);
    * thread sweep from 8 to 128 threads (loads the per-thread loop of
      ``NmoProfiler.run``);
    * the ``sampling_zoo`` preset at reduced scale (loads the exhaustive
      ground-truth pass).
    """
    def period_sweep(name: str, *workloads: WorkloadSpec) -> ScenarioSpec:
        return ScenarioSpec(
            name=name,
            kind="period_sweep",
            workloads=workloads,
            settings=NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=256),
            sweep=SweepAxis("period", (256, 2048, 32768)),
            trials=1,
            seed=derive_seed(seed, name),
        )

    # four jobs of about the same cost and the CFD sweep alone at the top:
    # the nearest-rank p50 over a pass's jobs is the median of one blended
    # group and the p90 the CFD sweep's median, so neither sits on a
    # boundary between two jobs' spreads
    return [
        period_sweep("bench_period_sweep",
                     WorkloadSpec("stream", n_threads=32, scale=1 / 128),
                     WorkloadSpec("bfs", n_threads=32, scale=1 / 32)),
        period_sweep("bench_period_sweep_cfd",
                     WorkloadSpec("cfd", n_threads=32, scale=1 / 8192)),
        fig9_spec(aux_pages=(2, 4, 512), period=1024, scale=1 / 8,
                  seed=derive_seed(seed, "aux")),
        fig10_spec(thread_counts=(8, 32, 128), scale=1 / 32,
                   seed=derive_seed(seed, "threads")),
        sampling_zoo_spec(scale=1 / 8192, seed=derive_seed(seed, "zoo")),
    ]


def warmup_grid() -> list[ScenarioSpec]:
    """A tiny spec of every exhibit kind: loads lazy imports before timing."""
    return [
        ScenarioSpec(
            name="bench_warmup",
            kind="period_sweep",
            workloads=(WorkloadSpec("stream", n_threads=2, scale=1 / 4096),),
            settings=NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=512),
            sweep=SweepAxis("period", (512, 4096)),
            trials=1,
        ),
        fig9_spec(aux_pages=(2, 8), scale=1 / 256, n_threads=2),
        fig10_spec(thread_counts=(2, 4), scale=1 / 1024),
        sampling_zoo_spec(scale=1 / 65536, strategies=("periodic", "poisson"),
                          periods=(512,)),
    ]


def job_spec(trial_seed: int) -> ScenarioSpec:
    """One small serve/cluster job: two STREAM profile trials."""
    return ScenarioSpec(
        name="bench_job",
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.002),),
        machine="small_test_machine",
        trials=2,
        seed=trial_seed,
    )


def replay_specs(seed: int) -> list[ScenarioSpec]:
    """The replay share: filled into the cache during setup."""
    return [job_spec(derive_seed(seed, "replay", i)) for i in range(REPLAY_SPECS)]


def client_jobs(seed: int, client: int, pass_index: int) -> list[ScenarioSpec]:
    """Client ``client``'s job list for its ``pass_index``-th pass.

    Every list has :data:`LIST_LENGTH` positions: :data:`REPLAY_SLOTS`
    replays, :data:`SHARED_SLOTS` cold specs that sit at the same
    position in every client's list, and fresh cold specs for the rest.
    The layout is shared by all clients of a pass; the replay picks and
    the fresh seeds are per client.
    """
    layout = (["replay"] * REPLAY_SLOTS + ["shared"] * SHARED_SLOTS
              + ["cold"] * (LIST_LENGTH - REPLAY_SLOTS - SHARED_SLOTS))
    random.Random(f"{seed}:layout:{pass_index}").shuffle(layout)
    replays = replay_specs(seed)
    pick = random.Random(f"{seed}:pick:{client}:{pass_index}")
    jobs = []
    for pos, kind in enumerate(layout):
        if kind == "replay":
            jobs.append(pick.choice(replays))
        elif kind == "shared":
            jobs.append(job_spec(derive_seed(seed, "shared", pass_index, pos)))
        else:
            jobs.append(job_spec(derive_seed(seed, "cold", client, pass_index, pos)))
    return jobs
