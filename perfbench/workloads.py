"""The three workloads: set-up, a timed closed loop, and output checks.

* ``exhibit_sweep`` -- cold passes over a reduced exhibit grid through
  ``Session(workers=2, cache=...)`` (the path behind ``repro run ...
  --workers 2 --cache``), each followed by replay passes on the warm
  cache, with every timing scaled by the host's measured speed;
* ``serve_mix`` -- two closed-loop ``ServerClient`` connections against a
  ``repro serve`` subprocess (two pool workers);
* ``cluster_mix`` -- the same job stream over ``HttpClusterClient`` to a
  ``repro cluster coordinator`` subprocess (journal on, HTTP gateway)
  sharding onto two ``repro cluster agent`` subprocesses.

A *job* is one scenario run, from submit until its results are back.
Jobs whose every trial came from a cache are *replays*; the others are
*cold*.  Every result is checked outside the timed window.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from repro.cluster import HttpClusterClient
from repro.orchestrate import ResultCache
from repro.scenarios import Session
from repro.scenarios.spec import ScenarioSpec
from repro.serve import ServerClient

from perfbench import procs, specs, yardstick
from perfbench.stats import Tally
from perfbench.tracer import Tracer

#: a job still unanswered after this many seconds counts as failed
JOB_DEADLINE_S = 30.0
#: seconds a server process gets to start or to exit after ``shutdown``
PROCESS_TIMEOUT_S = 60.0
#: closed-loop clients, no think time, per topology.  serve_mix runs one
#: per core of the reference host, so the clients' shared cold specs meet
#: in the server's in-flight dedup.  cluster_mix runs one: each of its
#: jobs crosses the client, the coordinator and an agent on the same two
#: cores, and with two clients their jobs queued behind each other, which
#: amplified the host's slow episodes (over five loaded runs replay_p50_ms
#: spread by 32% with two clients and 20% with one).
CLIENTS = {"serve": 2, "cluster": 1}
#: spawned processes computing the Session.run references (= cores)
CHECK_WORKERS = 2
#: pool workers of the serve_mix server: one per client, as many as the
#: cluster's two one-worker agents.  With one worker the two clients'
#: cold jobs queued behind each other often enough (about one in ten)
#: that cold_p90_ms flipped between ~50 and ~90 ms from run to run.
SERVE_WORKERS = 2
#: pinned exhibit report digests for :data:`specs.DEFAULT_SEED`
DIGESTS = Path(__file__).with_name("digests.json")
#: replay passes after each cold exhibit pass.  A replay sample is a whole
#: pass: the grid's jobs replay in 1-5 ms each, by their trial counts, and
#: a median over single jobs fell on the boundary between the cheap jobs
#: and the rest (its spread over ten runs was 17-26%).  Ten passes take
#: about 0.15 s and give a 30-second run over 100 samples.
REPLAY_PASSES = 10

_now = time.perf_counter


@dataclass
class Context:
    """Where a run works and what it measures."""

    seed: int
    work: Path
    tracer: Tracer | None = None
    trace_dir: Path | None = None

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else _NoSpan()


class _NoSpan:
    trace = None

    def __enter__(self) -> "_NoSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


@dataclass
class Outcome:
    """What one timed phase of a workload produced."""

    tally: Tally = field(default_factory=Tally)
    replay_ms: list[float] = field(default_factory=list)
    cold_ms: list[float] = field(default_factory=list)
    first_row_ms: list[float] = field(default_factory=list)
    sweep_s: list[float] = field(default_factory=list)
    setup_s: list[float] = field(default_factory=list)
    #: host slowness (:func:`slowness`) each scaled sample was divided by
    slowness: list[float] = field(default_factory=list)
    jobs: int = 0
    busy_s: float = 0.0
    notes: list[str] = field(default_factory=list)

    @property
    def jobs_per_s(self) -> float:
        return self.jobs / self.busy_s if self.busy_s else 0.0


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def report_digest(report: dict) -> str:
    """sha256 over a report's results, provenance and spec, as JSON."""
    body = json.loads(canonical({k: report[k] for k in ("results", "provenance", "spec")}))
    return hashlib.sha256(canonical(body)).hexdigest()


def exhibit_digest(report) -> str:
    """sha256 over a RunReport's rendered text and its JSON body."""
    text = report.render().encode()
    return hashlib.sha256(text + b"\n" + report_digest(report.to_dict()).encode()).hexdigest()


def _reference_digest(spec_dict: dict) -> str:
    """Digest of ``Session.run`` of a spec: the serve/cluster oracle."""
    return report_digest(Session().run(ScenarioSpec.from_dict(spec_dict)).to_dict())


def _kill_children() -> None:
    for pid in procs.descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass


def probe(ctx: Context, warm_up: bool) -> float:
    """Seconds for a fresh interpreter to import (and warm up) the client."""
    t0 = _now()
    done = subprocess.run(
        [sys.executable, "-m", "perfbench.host", "probe",
         *(["--warm-up"] if warm_up else [])],
        env=procs.child_env(ctx.work), cwd=procs.ROOT,
        capture_output=True, timeout=PROCESS_TIMEOUT_S,
    )
    if done.returncode != 0 or b"ready" not in done.stdout:
        raise RuntimeError(f"set-up probe failed: {done.stderr.decode()[-2000:]}")
    return _now() - t0


# -- exhibit_sweep -----------------------------------------------------------


def warm_up() -> None:
    """Load lazy imports and the pool path before timing."""
    for spec in specs.warmup_grid():
        Session().run(spec)
    Session(workers=2).run(specs.warmup_grid()[0])


def slowness() -> float:
    """How much slower than the reference host this host runs right now."""
    return yardstick.measure() / yardstick.NOMINAL_S


def exhibit_setup(ctx: Context, cycles: int, out: Outcome) -> None:
    """``cycles`` fresh-interpreter set-ups, then this process's own.

    The set-ups run back to back within seconds, so each is divided by the
    median of the host's slowness gauged around them (see
    :func:`exhibit_phase`): one gauge caught in a burst moves no sample.
    """
    gauges = [slowness()]
    seconds = []
    for _ in range(cycles):
        seconds.append(probe(ctx, warm_up=True))
        gauges.append(slowness())
    out.slowness.append(statistics.median(gauges))
    out.setup_s.extend(s / out.slowness[-1] for s in seconds)
    warm_up()


def _session_job(spec: ScenarioSpec, cache: ResultCache, tally: Tally):
    """One timed ``Session.run``; ``(ms, report)`` or ``(None, None)``."""
    watchdog = threading.Timer(JOB_DEADLINE_S, _kill_children)
    watchdog.start()
    t0 = _now()
    try:
        report = Session(workers=2, cache=cache).run(spec)
    except Exception as e:  # a broken job is counted, the run goes on
        tally.fail(f"{spec.name}: {type(e).__name__}: {e}")
        return None, None
    finally:
        watchdog.cancel()
    ms = (_now() - t0) * 1000
    if ms > JOB_DEADLINE_S * 1000:
        tally.fail(f"{spec.name}: deadline exceeded")
        return None, None
    tally.ok()
    return ms, report


def exhibit_phase(ctx: Context, seconds: float, out: Outcome) -> None:
    """A cold pass and :data:`REPLAY_PASSES` replay passes, repeated until
    ``seconds`` have elapsed.  A replay sample is one whole replay pass.

    Every timing is divided by the host's slowness, gauged on each core
    between the jobs: each cold job by the mean of the gauges before and
    after it, the replay passes by the mean of the gauges around them, so
    the samples read as on the reference host.  A pass's time is the sum
    of its jobs' times.  This CPU-bound workload ran up to 60% slower in
    one run than in the next as the host's other tenants came and went;
    a pass's time tracked the gauges around it (correlation 0.93 over 22
    pairs of passes), so dividing cut its spread across runs by more than
    half.
    """
    grid = specs.exhibit_grid(ctx.seed)
    pinned = (
        json.loads(DIGESTS.read_text()) if ctx.seed == specs.DEFAULT_SEED else None
    )
    first: list[str | None] | None = None
    stop = _now() + seconds
    k = 0
    gauge = slowness()
    while _now() < stop:
        cache_dir = ctx.work / f"exhibit-cache-{k}"
        digests: list[str | None] = []
        pass_ms = 0.0
        cache = ResultCache(cache_dir)
        for spec in grid:
            before = gauge
            with ctx.span("bench.job"):
                ms, report = _session_job(spec, cache, out.tally)
            gauge = slowness()
            digests.append(None if report is None else exhibit_digest(report))
            if report is None:
                continue
            out.slowness.append((before + gauge) / 2)
            ms /= out.slowness[-1]
            pass_ms += ms
            out.cold_ms.append(ms)
            # a batch call hands every row back at once, with the report
            out.first_row_ms.append(ms)
            if report.execution["executed"] != report.execution["total_trials"]:
                out.tally.wrong(f"{spec.name}: cold pass served from cache")
        if None not in digests:
            out.sweep_s.append(pass_ms / 1000)
        before = gauge
        replays: list[float] = []
        t1 = _now()
        for _ in range(REPLAY_PASSES):
            cache = ResultCache(cache_dir)
            replay_ms = []
            for spec, digest in zip(grid, digests):
                with ctx.span("bench.job"):
                    ms, report = _session_job(spec, cache, out.tally)
                if report is None:
                    continue
                replay_ms.append(ms)
                if report.execution["executed"] != 0:
                    out.tally.wrong(f"{spec.name}: replay recomputed trials")
                if exhibit_digest(report) != digest:
                    out.tally.wrong(f"{spec.name}: replay report differs from cold")
            if len(replay_ms) == len(grid):
                replays.append(sum(replay_ms))
        replay_s = _now() - t1
        gauge = slowness()
        out.slowness.append((before + gauge) / 2)
        out.replay_ms.extend(ms / out.slowness[-1] for ms in replays)
        out.busy_s += pass_ms / 1000 + replay_s / out.slowness[-1]
        out.jobs += (1 + REPLAY_PASSES) * len(grid)
        shutil.rmtree(cache_dir)
        if first is None:
            first = digests
        for spec, want, got in zip(grid, first, digests):
            if got is not None and want is not None and got != want:
                out.tally.wrong(f"{spec.name}: report differs between passes")
        k += 1
    if first is not None:
        observed = {spec.name: d for spec, d in zip(grid, first)}
        out.notes.append("exhibit digests: " + json.dumps(observed, sort_keys=True))
        if pinned is not None:
            for name, digest in observed.items():
                if digest is not None and pinned.get(name) != digest:
                    out.tally.wrong(f"{name}: report digest differs from digests.json")


# -- serve_mix / cluster_mix -------------------------------------------------


@dataclass
class JobRecord:
    spec: ScenarioSpec
    t0: float = 0.0
    t1: float = 0.0
    first_row: float | None = None
    cached: bool = True
    state: str | None = None
    digest: str | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return (
            self.error is None
            and self.state == "done"
            and self.digest is not None
            and self.t1 - self.t0 <= JOB_DEADLINE_S
        )


def run_job(client, spec: ScenarioSpec, ctx: Context) -> JobRecord:
    """submit -> stream every row -> results, timing the first row."""
    rec = JobRecord(spec)
    with ctx.span("bench.job") as root:
        rec.t0 = _now()
        try:
            job_id = client.submit(spec)["job_id"]
            root.trace = job_id
            for event in client.stream(job_id):
                if event.get("event") == "row":
                    if rec.first_row is None:
                        rec.first_row = _now()
                    rec.cached = rec.cached and event["cached"]
                else:
                    rec.state, rec.error = event.get("state"), event.get("error")
            report = client.results(job_id).get("report")
            rec.digest = report_digest(report) if report else None
        except Exception as e:  # a failed job is counted, the loop goes on
            rec.error = f"{type(e).__name__}: {e}"
            close = getattr(client, "close", None)
            if close is not None:
                close()  # a half-read socket must not serve the next job
        rec.t1 = _now()
    return rec


class Service:
    """A running serve or cluster topology and its client factory."""

    def __init__(self, kind: str, ctx: Context, tag: str) -> None:
        self.kind = kind
        self.hosts: list[procs.Host] = []
        work, trace = ctx.work, ctx.trace_dir
        if kind == "serve":
            server = procs.Host(
                "server",
                ["serve", "--port", "0", "--workers", str(SERVE_WORKERS),
                 "--cache-dir", str(work / f"{tag}-server-cache")],
                work, trace,
            )
            self.hosts.append(server)
            self.front = server.addresses(1, PROCESS_TIMEOUT_S)[0]
            return
        agents = [
            procs.Host(
                "agent",
                ["cluster", "agent", "--port", "0", "--workers", "1",
                 "--cache-dir", str(work / f"{tag}-agent{i}-cache")],
                work, trace,
            )
            for i in range(2)
        ]
        self.hosts.extend(agents)
        self.agents = [a.addresses(1, PROCESS_TIMEOUT_S)[0] for a in agents]
        coordinator = procs.Host(
            "coordinator",
            ["cluster", "coordinator",
             "--agents", ",".join(f"{h}:{p}" for h, p in self.agents),
             "--port", "0", "--http-port", "0",
             "--cache-dir", str(work / f"{tag}-coordinator-cache"),
             "--journal", str(work / f"{tag}-coordinator.wal")],
            work, trace,
        )
        self.hosts.insert(0, coordinator)
        _, self.front = coordinator.addresses(2, PROCESS_TIMEOUT_S)

    def client(self):
        if self.kind == "serve":
            return ServerClient(*self.front, timeout=JOB_DEADLINE_S)
        return HttpClusterClient(*self.front, timeout=JOB_DEADLINE_S)

    def shutdown(self, tally: Tally) -> None:
        """Stop every process through the ``shutdown`` op, never a signal."""
        try:
            self.client().shutdown()
            if self.kind == "cluster":
                for addr in self.agents:
                    ServerClient(*addr, timeout=PROCESS_TIMEOUT_S).shutdown()
        except Exception as e:  # reported, then the hosts are reaped below
            tally.fail(f"shutdown op failed: {type(e).__name__}: {e}")
        for host in self.hosts:
            if host.wait(PROCESS_TIMEOUT_S):
                tally.ok()
            else:
                tally.fail(f"{host.role} did not exit cleanly after shutdown")


class ServicePhase:
    """Set-up, timed closed loop and checks of serve_mix or cluster_mix."""

    def __init__(self, kind: str, ctx: Context) -> None:
        self.kind = kind
        self.ctx = ctx
        self.records: list[JobRecord] = []
        self.service: Service | None = None
        self.clients: list = []
        #: replays are divided by the host's slowness on cluster_mix only.
        #: There a replay crosses no delayed-ACK stall (the coordinator
        #: answers from its own cache over fresh HTTP connections), so it
        #: is CPU-bound like exhibit_sweep's jobs, and its p90 spread by
        #: 28% over ten loaded runs unscaled.  Cold jobs and first rows
        #: wait out the 40 ms stall on the coordinator -> agent socket,
        #: and serve_mix replays the one on the server -> client socket;
        #: CPU speed does not move a timer, so those stay unscaled.
        self.scale_replays = kind == "cluster"

    def bring_up(self, tag: str, out: Outcome) -> float:
        """Start the topology, fill the replay share, warm up; seconds taken."""
        t0 = _now()
        self.service = Service(self.kind, self.ctx, tag)
        self.clients = [self.service.client() for _ in range(CLIENTS[self.kind])]
        for c in self.clients:
            getattr(c, "connect", lambda: None)()
        warm = [specs.job_spec(specs.derive_seed(self.ctx.seed, "warm", tag, i))
                for i in range(CLIENTS[self.kind])]
        for spec in specs.replay_specs(self.ctx.seed) + warm:
            self._account(run_job(self.clients[0], spec, self.ctx), out)
        return _now() - t0

    def tear_down(self, out: Outcome) -> None:
        for c in self.clients:
            getattr(c, "close", lambda: None)()
        self.service.shutdown(out.tally)
        self.service = None

    def _account(self, rec: JobRecord, out: Outcome) -> None:
        self.records.append(rec)
        if rec.ok:
            out.tally.ok()
        else:
            out.tally.fail(rec.error or f"job ended {rec.state}")

    def timed(self, seconds: float, out: Outcome) -> None:
        stop = _now() + seconds
        ends: list[float] = []
        lock = threading.Lock()
        paused = 0.0

        def gauge() -> float:
            nonlocal paused  # only cluster_mix gauges, and it has one client
            if not self.scale_replays:
                return 1.0
            t = _now()
            g = slowness()
            paused += _now() - t
            return g

        def loop(cid: int) -> None:
            client = self.clients[cid]
            k = 0
            after = gauge()
            while _now() < stop:
                t_pass = _now()
                replays: list[float] = []
                complete = True
                for spec in specs.client_jobs(self.ctx.seed, cid, k):
                    if _now() >= stop:
                        complete = False
                        break
                    rec = run_job(client, spec, self.ctx)
                    with lock:
                        self._account(rec, out)
                        ends.append(rec.t1)
                        if not rec.ok:
                            continue
                        out.jobs += 1
                        ms = (rec.t1 - rec.t0) * 1000
                        if rec.cached:
                            replays.append(ms)
                        else:
                            out.cold_ms.append(ms)
                            out.first_row_ms.append((rec.first_row - rec.t0) * 1000)
                pass_s = _now() - t_pass
                if complete:
                    before, after = after, gauge()
                    slow = (before + after) / 2
                else:  # time is up: no gauge after the window
                    slow = after
                with lock:
                    if complete:
                        out.sweep_s.append(pass_s)
                    out.replay_ms.extend(ms / slow for ms in replays)
                    if self.scale_replays:
                        out.slowness.append(slow)
                k += 1

        t0 = _now()
        threads = [threading.Thread(target=loop, args=(i,))
                   for i in range(CLIENTS[self.kind])]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        out.busy_s = (max(ends) if ends else _now()) - t0 - paused

    def check(self, out: Outcome) -> None:
        """Every job's report must equal ``Session.run`` of its spec."""
        distinct = {}
        for rec in self.records:
            if rec.digest is not None:
                distinct.setdefault(rec.spec.spec_hash(), rec.spec)
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=CHECK_WORKERS, mp_context=ctx) as pool:
            want = dict(zip(
                distinct,
                pool.map(_reference_digest,
                         [s.to_dict() for s in distinct.values()], chunksize=8),
            ))
        wrong = 0
        for rec in self.records:
            if rec.digest is not None and rec.digest != want[rec.spec.spec_hash()]:
                wrong += 1
                out.tally.wrong(f"job {rec.spec.seed}: results differ from Session.run")
        out.notes.append(
            f"checked {len(self.records)} job results against "
            f"{len(distinct)} Session.run references: {wrong} differ"
        )


def service_setup(phase: ServicePhase, cycles: int, out: Outcome) -> None:
    """``cycles`` full set-ups (a fresh client interpreter plus bring-up);
    all but the last are torn down again."""
    for i in range(cycles):
        probe_s = probe(phase.ctx, warm_up=False)
        out.setup_s.append(probe_s + phase.bring_up(f"setup{i}", out))
        if i < cycles - 1:
            phase.tear_down(out)
