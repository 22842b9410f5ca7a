"""Scenario-spec evolution: adding TieringSpec must not move old keys.

The tiering block rode into :class:`ScenarioSpec` (and ``tiers`` into
:class:`MachineSpec`) after caches and scenario files already existed
in the wild.  These tests pin the compatibility contract:

* pre-tier scenario JSON files load unchanged and keep the exact
  ``spec_hash`` they had before the field existed (hashes below were
  captured on the pre-tier ``main``),
* the trial cache keys planned for pre-tier scenarios are identical to
  the pre-tier ones, so existing :class:`ResultCache` entries still
  hit,
* specs **with** a tiering block round-trip losslessly and hash
  differently,
* every preset and example file keeps its ``spec_hash`` and the exact
  bytes of its ``to_json()`` however the schema code is arranged.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.machine.spec import (
    ampere_altra_max,
    small_test_machine,
    tiered_test_machine,
)
from repro.orchestrate.cache import cache_key, canonical_config
from repro.scenarios import (
    SCENARIO_PRESETS,
    SamplingSpec,
    ScenarioSpec,
    Session,
    TieringSpec,
    load_scenario,
    named_scenario,
    sampling_zoo_spec,
    tiering_sweep_spec,
)

ROOT = Path(__file__).resolve().parent.parent.parent

#: spec_hash of every checked-in example scenario, captured before the
#: tiering field existed — these must never drift
PRE_TIER_SPEC_HASHES = {
    "colo_smoke.json":
        "783d0769e2ca27b437677b698e5d690cdb7efe33ac6d45015dc72f224004eb36",
    "fig8_small.json":
        "8a3273d0e0bad05c2f9ec19b5cfa5629b2787ff27168ef3800d70cef2a51194c",
    "quickstart_profile.json":
        "131ebfeb9ff0fe2823dc24ff16c81a3f350eafd2ca6ff8ecdb602fa55d6bc275",
}

#: cache key of each preset's first planned trial, captured pre-tier
PRE_TIER_TRIAL_KEYS = {
    "quickstart":
        "d2c0bae1005f0e2337dc04b8396993711c8a742903f2dfa5c83b4e849bfe4625",
    "colo_interference":
        "5b3365ca44d7c041c4416cfa4f92d190059b13551eb6dd22750f5f056de4b741",
    "fig9":
        "d7622db992e6fb9736c156355ef50f8b7b52b2cd333147e5f3e27df0d5f6182f",
}


class TestPreTierSpecFiles:
    def test_example_files_keep_their_spec_hash(self):
        for name, expected in PRE_TIER_SPEC_HASHES.items():
            spec = ScenarioSpec.from_file(ROOT / "examples" / "scenarios" / name)
            assert spec.spec_hash() == expected, name

    def test_pre_tier_files_serialise_without_tiering_key(self):
        for name in PRE_TIER_SPEC_HASHES:
            spec = ScenarioSpec.from_file(ROOT / "examples" / "scenarios" / name)
            assert spec.tiering is None
            assert "tiering" not in spec.to_dict(), name
            assert '"tiering"' not in spec.to_json(), name

    def test_explicit_null_tiering_loads_as_none(self):
        spec = ScenarioSpec.from_file(
            ROOT / "examples" / "scenarios" / "quickstart_profile.json"
        )
        d = spec.to_dict()
        d["tiering"] = None  # tolerated on input, omitted on output
        again = ScenarioSpec.from_dict(d)
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()


class TestPreTierCacheKeys:
    def test_preset_trial_keys_unchanged(self):
        s = Session()
        for name, expected in PRE_TIER_TRIAL_KEYS.items():
            t = s.plan(load_scenario(name))[0]
            assert cache_key(t.experiment, t.config, t.seed) == expected, name

    def test_flat_machine_canonical_config_has_no_tiers_key(self):
        for machine in (ampere_altra_max(), small_test_machine()):
            assert "tiers" not in canonical_config(machine)

    def test_tiered_machine_keys_differ(self):
        flat = canonical_config(small_test_machine())
        tiered = canonical_config(tiered_test_machine())
        assert "tiers" in tiered
        assert [t["name"] for t in tiered["tiers"]] == [
            "local", "remote", "cxl",
        ]
        assert json.dumps(flat, sort_keys=True) != json.dumps(
            tiered, sort_keys=True
        )


class TestTieringRoundTrip:
    def spec(self):
        return tiering_sweep_spec(
            machine="tiered_test_machine", scale=0.05, n_threads=2
        )

    def test_lossless_json_round_trip(self):
        spec = self.spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_tiering_block_survives_serialisation(self):
        d = json.loads(self.spec().to_json())
        assert d["tiering"]["policies"] == [
            "interleave", "first_touch", "hotness",
        ]
        assert d["tiering"]["far_ratios"] == [0.0, 0.25, 0.5]
        assert d["tiering"]["pilot_period"] == 2048

    def test_tiering_changes_the_hash(self):
        a = self.spec()
        b = ScenarioSpec.from_dict(
            {**a.to_dict(), "tiering": TieringSpec(
                far_ratios=(0.0, 0.75)
            ).to_dict()}
        )
        assert a.spec_hash() != b.spec_hash()

    def test_unknown_tiering_keys_rejected(self):
        d = self.spec().to_dict()
        d["tiering"]["promote_rate"] = 2
        with pytest.raises(Exception, match="unknown keys"):
            ScenarioSpec.from_dict(d)


#: spec_hash of every checked-in example scenario, captured before the
#: sampling block existed — the zoo must not move them either
PRE_ZOO_SPEC_HASHES = {
    **PRE_TIER_SPEC_HASHES,
    "tiering_smoke.json":
        "4f44f425d4cbf79c4cbb7dd9e30043741c6ad99eb836f1727cba4643015f67c5",
}


class TestPreZooSpecFiles:
    """Adding SamplingSpec must not move pre-zoo keys (same contract as
    the tiering rollout above, one field later)."""

    def test_example_files_keep_their_spec_hash(self):
        for name, expected in PRE_ZOO_SPEC_HASHES.items():
            spec = ScenarioSpec.from_file(ROOT / "examples" / "scenarios" / name)
            assert spec.spec_hash() == expected, name

    def test_pre_zoo_files_serialise_without_sampling_key(self):
        for name in PRE_ZOO_SPEC_HASHES:
            spec = ScenarioSpec.from_file(ROOT / "examples" / "scenarios" / name)
            assert spec.sampling is None
            assert "sampling" not in spec.to_dict(), name
            # NMO_MODE's value is the string "sampling"; the *key* is absent
            assert '"sampling":' not in spec.to_json(), name

    def test_explicit_null_sampling_loads_as_none(self):
        spec = ScenarioSpec.from_file(
            ROOT / "examples" / "scenarios" / "quickstart_profile.json"
        )
        d = spec.to_dict()
        d["sampling"] = None  # tolerated on input, omitted on output
        again = ScenarioSpec.from_dict(d)
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_pre_zoo_preset_trial_keys_unchanged(self):
        # the cache keys pinned at the tiering rollout still hold
        s = Session()
        for name, expected in PRE_TIER_TRIAL_KEYS.items():
            t = s.plan(load_scenario(name))[0]
            assert cache_key(t.experiment, t.config, t.seed) == expected, name


class TestSamplingRoundTrip:
    def spec(self):
        return sampling_zoo_spec()

    def test_lossless_json_round_trip(self):
        spec = self.spec()
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.spec_hash() == spec.spec_hash()

    def test_sampling_block_survives_serialisation(self):
        d = json.loads(self.spec().to_json())
        assert d["sampling"]["strategies"] == [
            "periodic", "poisson", "addr_hash", "page_hash", "hybrid",
        ]
        assert d["sampling"]["periods"] == [512, 2048]
        assert d["sampling"]["near_fraction"] == 0.5

    def test_sampling_changes_the_hash(self):
        a = self.spec()
        b = ScenarioSpec.from_dict(
            {**a.to_dict(), "sampling": SamplingSpec(
                strategies=("periodic", "poisson"), periods=(512,)
            ).to_dict()}
        )
        assert a.spec_hash() != b.spec_hash()

    def test_unknown_sampling_keys_rejected(self):
        d = self.spec().to_dict()
        d["sampling"]["oversample"] = 16
        with pytest.raises(Exception, match="unknown keys"):
            ScenarioSpec.from_dict(d)


#: (spec_hash, sha256 of to_json()) of every preset, captured before the
#: spec blocks shared one codec: the provenance anchors must not move
PRESET_ANCHORS = {
    "colo_interference": (
        "ee871e57199f9fb7feafb3d06cbb62a2eddc96709ef2873cc69e7cca12ffefbb",
        "7ed203c747022678f171b1cacf62f9d762433b3c68091f05837e6a6de71bb7be",
    ),
    "fig10_fig11": (
        "9979f7eec9581a43ab49a8a744824c2888dec13602dd1f74a3a13b17db88f894",
        "f37a114c9ca5835f14abf7c7c0f86c40de7acc85ae8ee932ed1d470589b727c7",
    ),
    "fig7": (
        "a3d619d3355154c7c71d889a5aa6594cf67796bb3a987df49e13ece690cc3373",
        "ceecf9a0bf81c0ac0f858a2b69ab5d3b8476271a950d483dd60e87d4b7a095b7",
    ),
    "fig8": (
        "8533d35fd5b3af2c08a59b704318242ca7f338a5cfc5e32f7d6bbd0ddd4d817f",
        "870e35c71a3ee09e59bcd165470262e48158628f66e720b28efabb18c7148b5c",
    ),
    "fig9": (
        "12f0a0af579ceebc07c2a4483402c30dadaa997d1aa784549f3f34044aa59df7",
        "5e551edfac470dfe019e11c4ec33742db874a833e565e4b05239adbfe04b9dd8",
    ),
    "quickstart": (
        "131ebfeb9ff0fe2823dc24ff16c81a3f350eafd2ca6ff8ecdb602fa55d6bc275",
        "2a987a65c09b5094f6416232ec31dcec2caaf3f2b861c6efa4fb0f8680341767",
    ),
    "sampling_zoo": (
        "8f39326166b5381fcda5eadc34ece1ffd2c199c40f83d2103d02894ae7644c53",
        "9765a3f2d698ba3415cf4f062f87ccd207362037dd2bef1f897aa0ea3bdcb820",
    ),
    "tiering_sweep": (
        "5276b05d5dab558235f32945dce532d88debacd34f1090a4bb6af4dc05ccf432",
        "4aeb2c0a9cb45a4460bcd8cb7b8daaac15a68f67f2377d77e12d3b44abfc398a",
    ),
}

#: sha256 of each example file's to_json(), captured with PRESET_ANCHORS
#: (their spec hashes are pinned in PRE_ZOO_SPEC_HASHES above)
EXAMPLE_JSON_SHA256 = {
    "colo_smoke.json":
        "15d9c1d28074274abfc296dfeedcaece6080d8a6b466faef668d6e7bc6f85f3c",
    "fig8_small.json":
        "2a56ea6be721907903570babd332481af37834a1558fcc367dbdb7e7669cf276",
    "quickstart_profile.json":
        "2a987a65c09b5094f6416232ec31dcec2caaf3f2b861c6efa4fb0f8680341767",
    "tiering_smoke.json":
        "c7dbe8bb163b37ea8c2e1342ecb62f9cec3499104033b9ce2056361db11affa1",
}


def json_sha256(spec: ScenarioSpec) -> str:
    return hashlib.sha256(spec.to_json().encode("utf-8")).hexdigest()


class TestProvenanceAnchors:
    def test_every_preset_is_pinned(self):
        assert set(PRESET_ANCHORS) == set(SCENARIO_PRESETS)

    @pytest.mark.parametrize("name", sorted(PRESET_ANCHORS))
    def test_preset_hash_and_json_unchanged(self, name):
        spec = named_scenario(name)
        assert (spec.spec_hash(), json_sha256(spec)) == PRESET_ANCHORS[name]

    def test_every_example_file_is_pinned(self):
        files = {
            p.name for p in (ROOT / "examples" / "scenarios").glob("*.json")
        }
        assert files == set(EXAMPLE_JSON_SHA256) == set(PRE_ZOO_SPEC_HASHES)

    @pytest.mark.parametrize("name", sorted(EXAMPLE_JSON_SHA256))
    def test_example_json_unchanged(self, name):
        spec = ScenarioSpec.from_file(ROOT / "examples" / "scenarios" / name)
        assert json_sha256(spec) == EXAMPLE_JSON_SHA256[name]
