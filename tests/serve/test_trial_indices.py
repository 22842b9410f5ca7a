"""``submit`` with ``trial_indices``: the cluster sharding primitive.

A sub-grid job must plan exactly like the full job (same cache keys
for the selected rows) and finish ``done`` with rows but no report.
"""

import pytest

from repro.cluster import HttpClusterClient, HttpGateway
from repro.errors import ServeError
from repro.orchestrate import ResultCache, cache_key
from repro.scenarios import Session
from repro.scenarios.spec import ScenarioSpec, WorkloadSpec
from repro.serve import ProfilingServer, ServerClient


def subset_spec(name="subset-wire", trials=3, seed=71):
    return ScenarioSpec(
        name=name,
        kind="profile",
        workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
        machine="small_test_machine",
        trials=trials,
        seed=seed,
    )


@pytest.fixture(scope="module")
def server(tmp_path_factory):
    cache = ResultCache(tmp_path_factory.mktemp("subset-cache"))
    with ProfilingServer(port=0, workers=2, cache=cache) as srv:
        yield srv


@pytest.fixture(scope="module")
def gateway(server):
    with HttpGateway(server) as gw:
        yield gw


@pytest.fixture()
def client(server):
    with ServerClient(*server.address) as c:
        yield c


class TestSubGridSubmit:
    def test_sub_grid_runs_only_selected_trials(self, server, client):
        spec = subset_spec()
        ack = client.submit(spec, trial_indices=[0, 2])
        assert ack["trials"] == 2
        job = server.queue.get(ack["job_id"])
        assert job.wait_terminal(timeout=60) == "done"
        assert job.subset is True
        results = client.results(ack["job_id"])
        assert len(results["rows"]) == 2
        assert results["report"] is None  # sub-grids never aggregate

    def test_sub_grid_rows_hit_the_same_cache_keys(self, server, client):
        # running indices [1] then the full grid: trial 1 is a hit
        spec = subset_spec(name="subset-keys", seed=72)
        ack = client.submit(spec, trial_indices=[1])
        job = server.queue.get(ack["job_id"])
        assert job.wait_terminal(timeout=60) == "done"
        planned = Session().plan(spec)[1]
        key = cache_key(planned.experiment, planned.config, planned.seed)
        assert job.keys == [key]
        assert server.cache.contains(key)
        outcome = client.run(spec)
        assert outcome.state == "done"
        cached = {e["index"] for e in outcome.rows if e["cached"]}
        assert 1 in cached

    @pytest.mark.parametrize(
        "indices",
        [[], [0, 0], [3], [-1], ["0"], [True]],
    )
    def test_bad_indices_rejected_structurally(self, client, indices):
        with pytest.raises(ServeError) as exc:
            client.submit(subset_spec(seed=73), trial_indices=indices)
        assert exc.value.code == "bad_request"

    def test_non_list_indices_rejected_at_the_wire(self, client):
        # the typed client can't even send this; a raw request can
        with pytest.raises(ServeError) as exc:
            client.request(
                "submit",
                spec=subset_spec(seed=75).to_dict(),
                trial_indices=7,
            )
        assert exc.value.code == "bad_request"

    @pytest.mark.parametrize("client_cls", [ServerClient, HttpClusterClient])
    def test_either_client_submits_a_sub_grid(
        self, server, gateway, client_cls
    ):
        front = server if client_cls is ServerClient else gateway
        spec = subset_spec(name=f"subset-{client_cls.__name__}", seed=76)
        with client_cls(*front.address) as c:
            ack = c.submit(spec, trial_indices=[2])
            assert ack["trials"] == 1
            events = list(c.stream(ack["job_id"]))
        assert [e["index"] for e in events if e["event"] == "row"] == [0]
        assert events[-1]["state"] == "done"
        assert server.queue.get(ack["job_id"]).subset is True

    def test_full_submit_is_unchanged(self, client):
        ack = client.submit(subset_spec(name="full-grid", seed=74))
        assert ack["trials"] == 3
