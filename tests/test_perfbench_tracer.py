"""The benchmark's traced mode still finds every ``repro`` name it wraps.

``perfbench/tracer.py::install`` replaces functions and methods across
the ``repro`` layers by name, so a refactor that renames or deletes one
of them breaks ``python3 perfbench/run.py --trace 1``.  This test runs
``install`` in a fresh interpreter (``src`` and the repo root on the
path, as ``perfbench/run.py`` sets them), runs a two-trial cached grid
cold and then warm through ``Session(workers=2)``, and checks the spans
the benchmark's per-layer metrics are built from.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

SCRIPT = """
import sys

from perfbench.tracer import install
from repro.orchestrate import ResultCache
from repro.scenarios import ScenarioSpec, Session, WorkloadSpec

out_dir, cache_dir = sys.argv[1:3]
tracer = install("bench", out_dir)
spec = ScenarioSpec(
    name="tracer-guard",
    kind="profile",
    workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
    machine="small_test_machine",
    trials=2,
    seed=5,
)
for _ in range(2):
    Session(workers=2, cache=ResultCache(cache_dir)).run(spec)
tracer.flush()
"""


def test_install_wraps_every_layer_of_a_cached_pool_grid(tmp_path):
    spans_dir = tmp_path / "spans"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    subprocess.run(
        [sys.executable, "-c", SCRIPT, str(spans_dir), str(tmp_path / "cache")],
        check=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    spans: dict[str, list] = {}
    for path in sorted(spans_dir.glob("*.json")):
        for span in json.loads(path.read_text())["spans"]:
            spans.setdefault(span[2], []).append(span)

    # span rows: [id, parent id, name, trace id, start ns, end ns, attrs]
    puts = spans["orchestrate.cache_put"]
    keys = {span[3] for span in puts}
    assert len(puts) == 2 and len(keys) == 2
    gets = sorted(spans["orchestrate.cache_get"], key=lambda span: span[4])
    assert [span[6]["hit"] for span in gets] == [0, 0, 1, 1]
    assert {span[3] for span in gets} == keys
    assert {span[3] for span in spans["orchestrate.pool_submit"]} == keys
    assert {span[3] for span in spans["scenarios.trial"]} == keys


CLIENT_SCRIPT = """
import sys

from perfbench.tracer import install
from repro.cluster import HttpClusterClient, HttpGateway
from repro.scenarios import ScenarioSpec, WorkloadSpec
from repro.serve import ProfilingServer, ServerClient

tracer = install("bench", sys.argv[1])
spec = ScenarioSpec(
    name="tracer-clients",
    kind="profile",
    workloads=(WorkloadSpec("stream", n_threads=2, scale=0.02),),
    machine="small_test_machine",
    trials=1,
    seed=5,
)
with ProfilingServer(workers=1) as server, HttpGateway(server) as gateway:
    with ServerClient(*server.address) as client:
        assert client.run(spec).state == "done"
    assert HttpClusterClient(*gateway.address).run(spec).state == "done"
tracer.flush()
"""


def test_install_wraps_both_clients_and_the_server_surface(tmp_path):
    spans_dir = tmp_path / "spans"
    env = dict(
        os.environ,
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
    )
    subprocess.run(
        [sys.executable, "-c", CLIENT_SCRIPT, str(spans_dir)],
        check=True,
        cwd=tmp_path,
        env=env,
        timeout=120,
    )
    names: dict[str, int] = {}
    for path in sorted(spans_dir.glob("*.json")):
        for span in json.loads(path.read_text())["spans"]:
            names[span[2]] = names.get(span[2], 0) + 1

    for name in (
        "serve.connect", "serve.client", "serve.client_stream",
        "serve.dispatch", "serve.dispatch_stream", "serve.call",
        "cluster.http", "cluster.http_stream",
    ):
        assert names.get(name), name
    # one submit and one results from ServerClient.run; the HTTP
    # client's ops must not also count as socket-client spans
    assert names["serve.client"] == 2
    assert names["cluster.http"] == 2
