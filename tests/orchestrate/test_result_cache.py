"""ResultCache: round-trip, key invalidation, stats, maintenance."""

import dataclasses
import enum

import pytest

from repro.orchestrate import ResultCache, cache_key, canonical_config, make_cache


@dataclasses.dataclass(frozen=True)
class DemoConfig:
    period: int
    scale: float
    workload: str = "stream"


class DemoMode(enum.Enum):
    A = "a"
    B = "b"


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCanonicalConfig:
    def test_dataclass_flattens_to_fields(self):
        c = canonical_config(DemoConfig(period=1024, scale=0.5))
        assert c == {"period": 1024, "scale": 0.5, "workload": "stream"}

    def test_dict_key_order_irrelevant(self):
        assert canonical_config({"b": 1, "a": 2}) == canonical_config(
            {"a": 2, "b": 1}
        )

    def test_enums_and_tuples(self):
        assert canonical_config(DemoMode.A) == ["DemoMode", "a"]
        assert canonical_config((1, 2)) == [1, 2]

    def test_numpy_scalars_reduce_to_python(self):
        np = pytest.importorskip("numpy")
        assert canonical_config(np.int64(3)) == 3
        assert canonical_config(np.float64(0.5)) == 0.5

    def test_large_arrays_do_not_collide(self):
        # repr truncates big arrays with "..." — two arrays differing
        # only in the elided middle must still key differently
        np = pytest.importorskip("numpy")
        a = np.zeros(10_000)
        b = np.zeros(10_000)
        b[5_000] = 1.0
        assert repr(a) == repr(b)  # the trap this guards against
        assert canonical_config(a) != canonical_config(b)

    def test_array_canonical_form_carries_shape_and_dtype(self):
        np = pytest.importorskip("numpy")
        a = np.arange(6, dtype=np.int32)
        tag, shape, dtype, digest = canonical_config(a)
        assert (tag, shape, dtype) == ("ndarray", [6], "int32")
        assert canonical_config(a.reshape(2, 3)) != canonical_config(a)
        assert canonical_config(a.astype(np.int64)) != canonical_config(a)
        # equal content and dtype: same canonical form, even if one is
        # a non-contiguous view
        c = np.arange(12, dtype=np.int32)[::2]
        assert canonical_config(c) == canonical_config(c.copy())

    def test_object_arrays_canonicalise_elements(self):
        np = pytest.importorskip("numpy")
        a = np.array(["x", "y"], dtype=object)
        b = np.array(["x", "z"], dtype=object)
        assert canonical_config(a) != canonical_config(b)
        assert canonical_config(a) == canonical_config(
            np.array(["x", "y"], dtype=object)
        )


class TestKeys:
    def test_stable_across_calls(self):
        cfg = DemoConfig(period=1024, scale=0.5)
        assert cache_key("e", cfg, 0) == cache_key("e", cfg, 0)

    def test_config_change_invalidates(self):
        a = cache_key("e", DemoConfig(period=1024, scale=0.5), 0)
        b = cache_key("e", DemoConfig(period=2048, scale=0.5), 0)
        assert a != b

    def test_dataclass_and_equivalent_dict_agree(self):
        cfg = DemoConfig(period=1024, scale=0.5)
        as_dict = {"period": 1024, "scale": 0.5, "workload": "stream"}
        assert cache_key("e", cfg, 0) == cache_key("e", as_dict, 0)

    def test_seed_experiment_version_all_key(self):
        cfg = {"x": 1}
        base = cache_key("e", cfg, 0)
        assert cache_key("e", cfg, 1) != base
        assert cache_key("f", cfg, 0) != base
        assert cache_key("e", cfg, 0, version="0.0.0") != base


class TestRoundTrip:
    def test_get_put_get(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        assert cache.get(key) is None
        cache.put(key, {"accuracy": 0.93})
        assert cache.get(key) == {"accuracy": 0.93}
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.stores == 1

    def test_survives_reopen(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, [1, 2, 3])
        reopened = ResultCache(cache.dir)
        assert reopened.get(key) == [1, 2, 3]

    def test_corrupt_entry_is_a_miss(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, "value")
        cache._path(key).write_bytes(b"not a pickle")
        assert cache.get(key, "fallback") == "fallback"
        assert not cache.contains(key)  # torn entry deleted


class TestStats:
    def test_flush_accumulates_across_sessions(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.get(key)  # miss
        cache.put(key, 1)
        cache.flush_stats()
        second = ResultCache(cache.dir)
        second.get(key)  # hit
        totals = second.flush_stats()
        assert (totals["hits"], totals["misses"], totals["stores"]) == (1, 1, 1)
        assert totals["deser_ns"] > 0

    def test_describe_mentions_counts(self, cache):
        key = cache.key("exp", {"p": 1}, 0)
        cache.put(key, 1)
        text = cache.describe()
        assert "entries: 1" in text
        assert "stores: 1" in text
        assert str(cache.dir) in text


class TestMaintenance:
    def test_clear_removes_everything(self, cache):
        for seed in range(3):
            cache.put(cache.key("exp", {"p": 1}, seed), seed)
        cache.flush_stats()
        assert cache.clear() == 3
        assert cache.entries() == []
        assert list(cache._objects().glob("*")) == []
        assert not any(cache.persistent_stats().values())

    def test_size_bytes(self, cache):
        cache.put(cache.key("exp", {}, 0), list(range(100)))
        assert cache.size_bytes() > 0


def _hammer_same_key(args):
    """Worker: store one key repeatedly, interleaved with reads.

    Module-level so it pickles across the ProcessPoolExecutor boundary.
    Returns the distinct payloads observed while other workers were
    racing their own stores of the same key.
    """
    cache_dir, key, worker_id, rounds = args
    cache = ResultCache(cache_dir)
    seen = set()
    for i in range(rounds):
        cache.put(key, {"worker": worker_id, "round": i, "blob": list(range(64))})
        value = cache.get(key)
        if value is not None:
            seen.add((value["worker"], value["round"]))
    return sorted(seen)


class TestConcurrentWriters:
    """Two+ workers storing the same key must never corrupt the entry.

    `put` stages each pickle in a `mkstemp` file in the entry's own
    directory and publishes it with `os.replace` — same-filesystem and
    therefore atomic on POSIX; a reader sees either the old complete
    entry or the new complete entry, never a torn one.  (ParallelRunner
    only writes from the orchestrating parent, but two *invocations*
    sharing a cache directory race exactly like this.)
    """

    def test_racing_writers_never_tear_the_entry(self, tmp_path):
        from concurrent.futures import ProcessPoolExecutor

        cache = ResultCache(tmp_path)
        key = cache.key("race", {"p": 1}, 0)
        n_workers, rounds = 4, 25
        with ProcessPoolExecutor(max_workers=n_workers) as pool:
            results = list(
                pool.map(
                    _hammer_same_key,
                    [(str(tmp_path), key, w, rounds) for w in range(n_workers)],
                )
            )
        # every read during the race returned a complete entry from
        # some (worker, round) — get() deletes corrupt entries and
        # returns None, so any tear would surface as a missing read
        assert all(len(seen) > 0 for seen in results)
        for seen in results:
            for worker, rnd in seen:
                assert 0 <= worker < n_workers and 0 <= rnd < rounds

        final = ResultCache(tmp_path).get(key)
        assert final is not None
        assert final["blob"] == list(range(64))

    def test_no_stale_temp_files_after_race(self, tmp_path):
        cache = ResultCache(tmp_path)
        key = cache.key("race", {"p": 2}, 0)
        for i in range(10):
            cache.put(key, i)
        leftovers = list(tmp_path.rglob("*.tmp"))
        assert leftovers == []
        assert len(cache.entries()) == 1


class TestDefaultDir:
    def test_env_var_honoured_at_construction(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "late"))
        assert ResultCache().dir == tmp_path / "late"

    def test_falls_back_to_home_cache(self, monkeypatch):
        from repro.orchestrate import DEFAULT_CACHE_DIR

        monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
        assert ResultCache().dir == DEFAULT_CACHE_DIR


class TestMakeCache:
    """The three-state --cache/--no-cache/--cache-dir interaction."""

    def test_unset_without_dir_is_none(self):
        assert make_cache(None) is None

    def test_unset_with_dir_implies_enabled(self, tmp_path):
        c = make_cache(None, tmp_path)
        assert isinstance(c, ResultCache)
        assert c.dir == tmp_path

    def test_enabled_builds_cache(self, tmp_path):
        c = make_cache(True, tmp_path)
        assert isinstance(c, ResultCache)
        assert c.dir == tmp_path

    def test_enabled_without_dir_uses_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "env"))
        c = make_cache(True)
        assert isinstance(c, ResultCache)
        assert c.dir == tmp_path / "env"

    def test_explicit_no_cache_is_none(self):
        assert make_cache(False) is None

    def test_explicit_no_cache_wins_over_dir(self, tmp_path):
        assert make_cache(False, tmp_path) is None
