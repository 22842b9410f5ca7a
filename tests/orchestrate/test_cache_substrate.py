"""Pickle-only ResultCache: entry bytes, torn writes, legacy directories.

The contract under test:

* the ``.pkl`` file holds exactly ``pickle.dumps(value,
  protocol=pickle.HIGHEST_PROTOCOL)`` (cache keys and cached bytes are
  unchanged from the versions that also wrote a columnar sidecar),
* a torn or corrupt ``.pkl`` is a miss + recompute, never a crash and
  never garbage,
* a cache directory written by those older versions (``.pkl`` +
  ``.cols`` pairs) reads through: the sidecars are ignored by ``get``
  and removed by ``clear``.
"""

import pickle

import numpy as np
import pytest

from repro.orchestrate.cache import ResultCache
from repro.spe.records import SampleBatch

#: sidecar-shaped bytes (columnar magic, version 1, padded header)
LEGACY_COLS = b"RCOL\x01\x00\x00\x00" + bytes(56)


def sample_value(n=64):
    cols = {
        name: np.arange(n, dtype=SampleBatch._DTYPES[name])
        for name in SampleBatch._COLUMNS
    }
    return {"batch": SampleBatch.from_columns(**cols), "accuracy": 0.93}


def sidecar(cache, key):
    """Where older versions wrote an entry's columnar sidecar."""
    return cache._path(key).with_suffix(".cols")


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path)


class TestMmapHit:
    """Warm hits are one read plus ``pickle.loads`` of the ``.pkl``;
    no value gets an mmap'd sidecar."""

    def test_hit_value_matches_pickle_path(self, cache, tmp_path):
        key = cache.key("exp", {"p": 1}, 0)
        value = sample_value()
        cache.put(key, value)
        got = ResultCache(tmp_path).get(key)
        assert pickle.dumps(got) == pickle.dumps(value)
        assert np.array_equal(got["batch"].addr, np.arange(64, dtype=np.uint64))

    def test_pkl_bytes_identical_to_substrate_free_cache(self, cache):
        value = sample_value()
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, value)
        assert cache._path(key).read_bytes() == pickle.dumps(
            value, protocol=pickle.HIGHEST_PROTOCOL
        )

    def test_unencodable_value_has_no_sidecar(self, cache):
        for seed, value in enumerate((object(), sample_value())):
            key = cache.key("exp", {"p": 1}, seed)
            cache.put(key, value)
            assert not sidecar(cache, key).exists()
            assert cache.get(key) is not None
        assert cache.stats.hits == 2


class TestTornWrites:
    @pytest.mark.parametrize("damage", ["truncate", "empty", "garbage"])
    def test_torn_sidecar_falls_back_and_heals(self, cache, damage):
        # a damaged sidecar left by an older version never reaches get
        key = cache.key("exp", {"p": 1}, 0)
        value = sample_value()
        cache.put(key, value)
        cols = sidecar(cache, key)
        if damage == "truncate":
            cols.write_bytes(LEGACY_COLS[:32])
        elif damage == "empty":
            cols.write_bytes(b"")
        else:
            cols.write_bytes(b"RCOLgarbage after a valid magic")
        got = cache.get(key)
        assert got["accuracy"] == 0.93
        assert cache.stats.hits == 1
        assert cache.clear() == 1
        assert not cols.exists()

    def test_torn_everything_is_a_miss(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, sample_value())
        cache._path(key).write_bytes(b"\x80")  # truncated pickle stream
        sidecar(cache, key).write_bytes(LEGACY_COLS)
        assert cache.get(key) is None
        assert not cache._path(key).exists()
        assert cache.stats.misses == 1

    def test_recompute_after_tear_round_trips(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, sample_value())
        cache._path(key).write_bytes(b"")
        assert cache.get(key) is None
        cache.put(key, sample_value())  # the recompute lands cleanly
        assert cache.get(key)["accuracy"] == 0.93


class TestLegacyReadThrough:
    def test_pkl_only_directory_serves(self, cache, tmp_path):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, sample_value())
        reopened = ResultCache(tmp_path)
        got = reopened.get(key)
        assert got["accuracy"] == 0.93
        assert reopened.stats.hits == 1
        assert reopened.stats.deser_ns > 0

    def test_stray_sidecar_without_pkl_is_a_miss(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, sample_value())
        sidecar(cache, key).write_bytes(LEGACY_COLS)
        cache._path(key).unlink()
        assert not cache.contains(key)
        assert cache.get(key) is None
        assert cache.entries() == []

    def test_pkl_and_cols_directory_serves_and_clears(self, tmp_path):
        # the layout older versions wrote: <key>.pkl + <key>.cols
        writer = ResultCache(tmp_path)
        keys = [writer.key("exp", {"p": 1}, seed) for seed in range(3)]
        for key in keys:
            writer.put(key, sample_value())
            sidecar(writer, key).write_bytes(LEGACY_COLS)
        cache = ResultCache(tmp_path)
        got = cache.get(keys[0])
        assert pickle.dumps(got) == pickle.dumps(sample_value())
        assert (cache.stats.hits, cache.stats.misses) == (1, 0)
        parsed = dict(line.split(": ", 1) for line in cache.describe().splitlines())
        assert parsed["entries"] == "3"
        assert cache.clear() == 3
        assert list(tmp_path.rglob("*.pkl")) == []
        assert list(tmp_path.rglob("*.cols")) == []
        assert list(cache._objects().glob("*")) == []


class TestStatsSurface:
    def test_describe_reports_payloads_and_paths(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, sample_value())
        cache.get(key)
        cache.get(cache.key("exp", {"p": 2}, 0))
        text = cache.describe()
        parsed = dict(
            line.split(": ", 1) for line in text.splitlines()
        )  # the CI smoke job parses exactly this shape
        assert parsed["entries"] == "1"
        assert parsed["size"].endswith(" KiB")
        assert (parsed["hits"], parsed["misses"], parsed["stores"]) == ("1", "1", "1")
        assert parsed["deserialize"].endswith(" ms")
        assert set(parsed) == {
            "cache directory", "entries", "size", "hits", "deserialize",
            "misses", "stores",
        }
