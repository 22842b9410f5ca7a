"""Cache replication: byte-exact export/import, pull/push over agents."""

import base64

import pytest

from repro.cluster import CacheReplicator, ShardAgent, decode_entry, encode_entry
from repro.errors import ClusterError, ServeError
from repro.orchestrate import ResultCache, cache_key
from repro.serve import ServerClient


def put_entry(cache, name="repl", seed=0, value=None):
    key = cache_key(name, {"n": seed}, seed)
    cache.put(key, value if value is not None else {"metric": float(seed)})
    return key


class TestEntryBytes:
    def test_export_import_is_byte_identical(self, tmp_path):
        src = ResultCache(tmp_path / "src")
        dst = ResultCache(tmp_path / "dst")
        key = put_entry(src, value={"metric": 3.5, "samples": 7})
        pkl = src.export_entry(key)
        assert pkl == src._path(key).read_bytes()
        dst.import_entry(key, pkl)
        assert dst._path(key).read_bytes() == src._path(key).read_bytes()
        assert dst.get(key) == src.get(key)

    def test_export_unknown_key_raises_keyerror(self, tmp_path):
        with pytest.raises(KeyError):
            ResultCache(tmp_path).export_entry("0" * 64)

    def test_import_without_sidecar(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.import_entry("ab" * 32, b"not-a-pickle-but-stored")
        assert cache.contains("ab" * 32)
        assert [p.name for p in cache._path("ab" * 32).parent.iterdir()] == [
            f"{'ab' * 32}.pkl"
        ]

    def test_wire_roundtrip(self):
        payload = encode_entry(b"\x00\x01binary")
        assert set(payload) == {"pkl"}
        assert decode_entry(payload) == b"\x00\x01binary"

    def test_decode_ignores_legacy_cols(self):
        # older peers also sent the columnar sidecar as "cols"
        payload = dict(
            encode_entry(b"solo"), cols=base64.b64encode(b"cols").decode()
        )
        assert decode_entry(payload) == b"solo"
        assert decode_entry(dict(encode_entry(b"solo"), cols=None)) == b"solo"

    def test_malformed_payload_is_a_cluster_error(self):
        with pytest.raises(ClusterError):
            decode_entry({"pkl": "!!! not base64 !!!"})
        with pytest.raises(ClusterError):
            decode_entry({})


class TestAgentOps:
    @pytest.fixture()
    def agent(self, tmp_path):
        with ShardAgent(port=0, workers=1, cache=ResultCache(tmp_path)) as a:
            yield a

    def test_export_import_over_the_wire(self, agent, tmp_path):
        key = put_entry(agent.cache, value={"metric": 9.0})
        local = ResultCache(tmp_path / "local")
        replicator = CacheReplicator(local)
        with ServerClient(*agent.address) as client:
            pulled = replicator.pull(client, [key])
        assert pulled == 1
        assert local._path(key).read_bytes() == agent.cache._path(key).read_bytes()

    def test_pull_skips_present_and_missing(self, agent, tmp_path):
        held = put_entry(agent.cache, seed=1)
        local = ResultCache(tmp_path / "local")
        already = put_entry(local, seed=2)
        missing = cache_key("repl", {"n": 99}, 99)  # neither side has it
        replicator = CacheReplicator(local)
        with ServerClient(*agent.address) as client:
            pulled = replicator.pull(client, [held, already, missing])
        assert pulled == 1
        assert local.contains(held) and not local.contains(missing)

    def test_push_is_idempotent(self, agent, tmp_path):
        local = ResultCache(tmp_path / "local")
        key = put_entry(local, seed=5)
        replicator = CacheReplicator(local)
        with ServerClient(*agent.address) as client:
            assert replicator.push(client, [key]) == 1
            assert agent.cache.contains(key)
            # second push: the agent already holds identical bytes
            assert replicator.push(client, [key]) == 0

    def test_export_of_unknown_key_is_structured(self, agent):
        with ServerClient(*agent.address) as client:
            with pytest.raises(ServeError) as exc:
                client.request("cache_export", key="f" * 64)
            assert exc.value.code == "bad_request"

    def test_import_from_legacy_peer_stores_only_pkl(self, agent):
        pkl = b"\x80\x05K\x07."  # pickle of 7
        key = cache_key("repl", {"n": 7}, 7)
        with ServerClient(*agent.address) as client:
            response = client.request(
                "cache_import", key=key,
                pkl=base64.b64encode(pkl).decode(),
                cols=base64.b64encode(b"RCOL-sidecar").decode(),
            )
        assert response["imported"] is True
        path = agent.cache._path(key)
        assert path.read_bytes() == pkl
        assert [p.name for p in path.parent.iterdir()] == [path.name]
        assert agent.cache.get(key) == 7

    def test_cache_ops_require_a_key(self, agent):
        with ServerClient(*agent.address) as client:
            with pytest.raises(ServeError):
                client.request("cache_export")
            with pytest.raises(ServeError):
                client.request("cache_import", pkl="aGk=")

    def test_plain_server_rejects_cache_ops(self):
        from repro.serve import ProfilingServer

        with ProfilingServer(port=0, workers=1) as srv:
            with ServerClient(*srv.address) as client:
                with pytest.raises(ServeError):
                    client.request("cache_export", key="a" * 64)
