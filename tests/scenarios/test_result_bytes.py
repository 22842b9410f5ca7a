"""Result bytes pinned across commits.

The golden-parity suites compare two paths of one commit, so a change
that moves both paths alike passes them.  This module holds sha256
digests captured from an earlier commit instead:

* every raw cache-entry file (``objects/<kk>/<key>.pkl``) left by small
  specs on the paths the perfbench exhibit grid does not run — the
  tiering preset (the page→tier remap of ``levels_at``), a PEBS-style
  profile (no collision tracking), a two-runner co-location sweep, the
  hash-filtered sampling strategies at four threads, and profiles of
  the graph and analytics workloads at two to four threads;
* the raw sample columns of one profile per registered workload, so
  the addresses of every sample are pinned too (profile rows only
  carry counts).

A digest that moves means the simulator's output changed: the cache
keys of existing results would then point at different bytes.
"""

import hashlib

import numpy as np
import pytest

from repro.machine.spec import ampere_altra_max
from repro.nmo.env import NmoMode, NmoSettings
from repro.nmo.profiler import NmoProfiler
from repro.orchestrate import ResultCache
from repro.scenarios import Session
from repro.scenarios.presets import (
    colo_interference_spec,
    sampling_zoo_spec,
    tiering_sweep_spec,
)
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.workloads.registry import make_workload, workload_names


def _sampling(period: int) -> NmoSettings:
    return NmoSettings(enable=True, mode=NmoMode.SAMPLING, period=period)


#: the pinned specs; thread counts of 3 leave a remainder in the OpenMP
#: static chunking of the arrays
SPECS = {
    "tiering_sweep": tiering_sweep_spec(
        n_threads=3, scale=1 / 1024, far_ratios=(0.5,)
    ),
    "x86_pebs_profile": ScenarioSpec(
        name="pin_x86",
        kind="profile",
        machine="x86_pebs_machine",
        workloads=(WorkloadSpec("stream", n_threads=3, scale=1 / 2048),),
        settings=_sampling(512),
        trials=1,
        seed=5,
    ),
    "colo_interference": colo_interference_spec(max_corunners=2, scale=0.002),
    "hash_strategies": sampling_zoo_spec(
        n_threads=4,
        scale=1 / 8192,
        strategies=("addr_hash", "page_hash", "hybrid"),
        periods=(512,),
        seed=3,
    ),
    "graph_and_analytics_profiles": ScenarioSpec(
        name="pin_graphs",
        kind="profile",
        workloads=(
            WorkloadSpec("bfs", n_threads=2, scale=1 / 64),
            WorkloadSpec("pagerank", n_threads=3, scale=1 / 4096),
            WorkloadSpec("inmem_analytics", n_threads=4, scale=1 / 4096),
            WorkloadSpec("cfd", n_threads=3, scale=1 / 16384),
        ),
        settings=_sampling(2048),
        trials=1,
        seed=7,
    ),
}

#: sha256 of every cache-entry file each spec leaves, by cache key
ENTRY_SHA256 = {
    "colo_interference": {
        "32607e42007be0fd59ecfeb8f30b908e84f3f3ba291f30e5f88d1792bea30a19":
            "4a1ac5744527fb85066199ff6d0661fc344dbf6c3b791fb1e54ce770c62fdbb0",
        "34e332a5b0bce301d02dbe6405d718ed308031ced2ae9c6564150debb926d428":
            "f87a5688535cf0b89a9c2c5f8b61df5f41ab45aa783f3d1145ce020107bfb32d",
        "8d0971bc219e402f1c99c0c9751218d25676d5fb51d77a8d24c9da0130879d23":
            "c2a56d3e184369be1323998d865447ae8a14ff9894c4c791b229ca83ebd24d3f",
    },
    "graph_and_analytics_profiles": {
        "62abb9a2ecc40fc92eef63b3d07f0137c3b621fdb780d56da4d63a3cafd8d691":
            "9367f9265c83c286626343504b02c4195a880eef9f44f2b39cae585bff873a77",
        "8aca8ecb7b6fef03b173ce814530b097b3dedd67eb4d09d5418cb5336822da7b":
            "f6b8ad53e4c56bd3c394d936821205760c313a5072f629ec9908ad8bb173a737",
        "a9290ba8a663cdd0dea68f705edf354ab8012108eb7deab6bd1c774c16f8bb1d":
            "56f2ede64e9a8580ed82e6301f30969908ba16c06ee2d684b1713d13704e8a9d",
        "cadf168f1b3748064a6d266f8994702b48b2a65da846ed0126f8984b8d2bcdb3":
            "0e3a17fbdcda208452a13e28f53eed82372d58b38cd76136503a124d6973cb6f",
    },
    "hash_strategies": {
        "864f10b48e73ebf2dd17871e62ee862ba2b2484421c35ad4c9a86e9d0aac872d":
            "90e8b38905dd91e2e86dfc18a99aff1cd1176142b1c175c41a96840019c96140",
        "ce9eda5e040c8b183f45af89b4519199527c76bb3afdb535fe9c8283d3494899":
            "4fb786e66c8f0f158b829ceaaec7697a76906e9b028a6333652e902310cf909c",
        "d6bf546f88c677375845fdf8a4efd9e2d2e383e823f8ab0775071f7038573b6e":
            "26cc46e692dc05abe867da464df1ca1f066ec796a92240b7525650bce446b6e0",
    },
    "tiering_sweep": {
        "2b2f666a11c9cd7bdaddb9022e790d76fde242b646a30b1937fa88571f61eb75":
            "d0cbd9bf445125e9bdd4db04ca26b2b35eb6bd6dd3984dc1a33ad4a567f9cc28",
        "7e37b701069a2461accc74222fcd19cd508b1188426baf8285b7c94fced25f2f":
            "9a9349a865f0bef0bc5ee80242da9306f97c399209e5d989e9455414cc748ba6",
        "bd4f5aca0d5afa242ef62c234c01f7f4c38c1149ad3a74f6ae03c9cd9751438b":
            "358073bf665f24a1e94aecff5c44999ecb64a417c4c7f4aa0a69efa830a0daf5",
    },
    "x86_pebs_profile": {
        "42d6cac8bfbb4e39da79e24735529150ff33329ae6e105a721a38fd00b010eb0":
            "0e89accb617aed0f01aa56b2f3e19ad7ed8674b903ec5a50e9ba75fe3e7e837a",
    },
}

#: (n_threads, scale) of the per-workload sample-column pins
PROFILES = {
    "bfs": (2, 1 / 64),
    "cfd": (3, 1 / 16384),
    "inmem_analytics": (4, 1 / 4096),
    "pagerank": (3, 1 / 4096),
    "stream": (3, 1 / 2048),
}

#: sha256 over the sample columns of each workload's profile
SAMPLE_SHA256 = {
    "bfs":
        "5514ff95c231cc8bb8b6990545437215147eb1d54f45ecbe90ee7bdfadeeefe3",
    "cfd":
        "a9184d0b7b588aafb5e0e9951818f80e0930b69cd693a5182fd1f9405fdbf647",
    "inmem_analytics":
        "1d11a59677aa21aec4d1aff87a98f22a4d4bf4a0a4174a8a79b54a53e20c6ce8",
    "pagerank":
        "f7250595a0100fbf24dc802432744baed509126a191ca7c6afb8b417af7cbbe5",
    "stream":
        "969dc18643515d2d3857106f15d9ae0c51f254505fda9af4cdd01a9d995c1e7e",
}


def entry_digests(spec: ScenarioSpec, cache_dir) -> dict[str, str]:
    cache = ResultCache(cache_dir)
    Session(workers=1, cache=cache).run(spec)
    return {
        p.stem: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in cache.entries()
    }


def sample_digest(workload: str) -> str:
    n_threads, scale = PROFILES[workload]
    w = make_workload(
        workload, ampere_altra_max(), n_threads=n_threads, scale=scale
    )
    r = NmoProfiler(w, _sampling(1024), seed=11).run()
    h = hashlib.sha256()
    for col in (*(getattr(r.batch, c) for c in r.batch._COLUMNS),
                r.sample_cores, r.sample_times_s):
        h.update(np.ascontiguousarray(col).tobytes())
    return h.hexdigest()


def test_every_spec_and_workload_is_pinned():
    assert set(ENTRY_SHA256) == set(SPECS)
    assert set(SAMPLE_SHA256) == set(PROFILES) == set(workload_names())


@pytest.mark.parametrize("name", sorted(SPECS))
def test_cache_entry_bytes_unchanged(name, tmp_path):
    assert entry_digests(SPECS[name], tmp_path) == ENTRY_SHA256[name]


@pytest.mark.parametrize("workload", sorted(PROFILES))
def test_sample_columns_unchanged(workload):
    assert sample_digest(workload) == SAMPLE_SHA256[workload]
