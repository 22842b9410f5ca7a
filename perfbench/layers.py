"""Per-layer metrics from the spans of every process of one traced run.

A span's *self time* is its duration minus the part of it that its
child spans (same process, nested inside it) cover.  ``*_ms`` metrics
sum self time over every process; ``*_p50_ms`` metrics are medians of a
per-operation wait or round trip matched across processes by trace id
(job id, or the trial's cache key inside workers).

``trace.residual_ratio`` is the share of the end-to-end windows (the
benchmark's own ``bench.*`` root spans) during which no layer span is
open in any process.  Entry spans and waits do not count as layer work:
the client calls, ``Session.run`` itself, and streams, which only wait
for rows.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from perfbench.stats import median

#: spans that delimit or wait on work rather than do it (see module doc)
NOT_LAYER_WORK = frozenset({
    "bench.job",
    "scenarios.run",
    "serve.client",
    "serve.client_stream",
    "serve.dispatch_stream",
    "serve.row_recv",
    "cluster.http",
    "cluster.http_stream",
})

#: (metric, unit) in report order; count metrics carry no unit suffix
PER_LAYER = (
    ("workloads.build_ms", "ms"),
    ("workloads.op_gen_ms", "ms"),
    ("machine.draw_levels_ms", "ms"),
    ("spe.sample_ms", "ms"),
    ("spe.collision_scan_ms", "ms"),
    ("spe.feed_ms", "ms"),
    ("spe.samples_selected", "count"),
    ("spe.collisions", "count"),
    ("spe.records_written", "count"),
    ("spe.wakeups", "count"),
    ("spe.written_ratio", "ratio"),
    ("cpu.op_latencies_ms", "ms"),
    ("nmo.run_ms", "ms"),
    ("nmo.self_ms", "ms"),
    ("nmo.ns_per_sample", "ns"),
    ("analysis.ground_truth_ms", "ms"),
    ("analysis.score_ms", "ms"),
    ("scenarios.plan_ms", "ms"),
    ("scenarios.report_ms", "ms"),
    ("scenarios.trial_ms", "ms"),
    ("scenarios.run_ms", "ms"),
    ("orchestrate.cache_get_ms", "ms"),
    ("orchestrate.cache_put_ms", "ms"),
    ("orchestrate.cache_hit_ratio", "ratio"),
    ("orchestrate.pool_wait_p50_ms", "ms"),
    ("orchestrate.trials_executed", "count"),
    ("substrate.encode_ms", "ms"),
    ("substrate.decode_ms", "ms"),
    ("substrate.marshal_ms", "ms"),
    ("substrate.unmarshal_ms", "ms"),
    ("substrate.bytes", "bytes"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.dispatch_ms", "ms"),
    ("serve.call_ms", "ms"),
    ("serve.row_delivery_p50_ms", "ms"),
    ("serve.connects", "count"),
    ("serve.fast_path_ratio", "ratio"),
    ("serve.dedup_ratio", "ratio"),
    ("cluster.http_ms", "ms"),
    ("cluster.shard_rtt_p50_ms", "ms"),
    ("cluster.pull_ms", "ms"),
    ("cluster.push_ms", "ms"),
    ("cluster.journal_ms", "ms"),
    ("cluster.fsyncs", "count"),
    ("cluster.connects", "count"),
    ("first_row.to_trial_p50_ms", "ms"),
    ("first_row.trial_p50_ms", "ms"),
    ("first_row.to_land_p50_ms", "ms"),
    ("first_row.delivery_p50_ms", "ms"),
    ("trace.residual_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
)

#: roles whose job queue is fed by the serve scheduler
SERVE_ROLES = ("server", "agent")


@dataclass(frozen=True)
class Span:
    role: str
    pid: int
    sid: int
    parent: int
    name: str
    trace: str | None
    t0: int
    t1: int
    attrs: dict | None
    self_ns: int

    @property
    def dur(self) -> int:
        return self.t1 - self.t0


def self_times(rows: list[list]) -> dict[int, int]:
    """Span id -> self time (ns) for one process's raw span rows.

    Children are subtracted only when they lie inside their parent's
    interval; child spans of one parent never overlap (they nest on one
    thread's stack), so their durations add.
    """
    by_id = {r[0]: r for r in rows}
    covered: dict[int, int] = defaultdict(int)
    for sid, parent, _name, _trace, t0, t1, _attrs in rows:
        p = by_id.get(parent)
        if p is not None and p[4] <= t0 and t1 <= p[5]:
            covered[parent] += t1 - t0
    return {r[0]: max(0, r[5] - r[4] - covered[r[0]]) for r in rows}


def load(processes: list[dict]) -> list[Span]:
    """Flatten span files into :class:`Span` records with self times."""
    out = []
    for proc in processes:
        rows = proc["spans"]
        own = self_times(rows)
        for sid, parent, name, trace, t0, t1, attrs in rows:
            out.append(Span(proc["role"], proc["pid"], sid, parent, name,
                            trace, t0, t1, attrs, own[sid]))
    return out


def union_length(intervals: list[tuple[int, int]]) -> int:
    """Total length covered by a set of half-open intervals."""
    total = 0
    end = None
    for a, b in sorted(intervals):
        if end is None or a > end:
            total += b - a
            end = b
        elif b > end:
            total += b - end
            end = b
    return total


def covered_share(windows: list[tuple[int, int]], cover: list[tuple[int, int]]) -> float:
    """Share of the union of ``windows`` that the union of ``cover`` covers."""
    base = union_length(windows)
    if base == 0:
        return 0.0
    clipped = []
    merged = _merge(windows)
    for a, b in cover:
        for wa, wb in merged:
            lo, hi = max(a, wa), min(b, wb)
            if lo < hi:
                clipped.append((lo, hi))
    return union_length(clipped) / base


def _merge(intervals: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out: list[list[int]] = []
    for a, b in sorted(intervals):
        if out and a <= out[-1][1]:
            out[-1][1] = max(out[-1][1], b)
        else:
            out.append([a, b])
    return [(a, b) for a, b in out]


def _ms(ns: float) -> float:
    return ns / 1e6


def _p50_ms(values_ns: list[int]) -> tuple[float, int]:
    return (_ms(median(values_ns)) if values_ns else 0.0), len(values_ns)


def per_layer(
    spans: list[Span], front_role: str, overhead_ratio: float
) -> tuple[dict[str, float], dict[str, int]]:
    """Every per-layer metric plus the sample count behind each p50.

    ``front_role`` names the process the benchmark's clients talk to
    (``server`` or ``coordinator``; ``bench`` when they call
    ``Session.run`` in-process).
    """
    by_name: dict[str, list[Span]] = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)

    def self_ms(name: str) -> float:
        return _ms(sum(s.self_ns for s in by_name[name]))

    def attr_sum(name: str, key: str) -> int:
        return sum((s.attrs or {}).get(key, 0) for s in by_name[name])

    m: dict[str, float] = {}
    counts: dict[str, int] = {}
    for metric, span_name in (
        ("workloads.build_ms", "workloads.build"),
        ("workloads.op_gen_ms", "workloads.op_gen"),
        ("machine.draw_levels_ms", "machine.draw_levels"),
        ("spe.sample_ms", "spe.sample"),
        ("spe.collision_scan_ms", "spe.collision_scan"),
        ("spe.feed_ms", "spe.feed"),
        ("cpu.op_latencies_ms", "cpu.op_latencies"),
        ("nmo.self_ms", "nmo.run"),
        ("analysis.ground_truth_ms", "analysis.ground_truth"),
        ("analysis.score_ms", "analysis.score"),
        ("scenarios.plan_ms", "scenarios.plan"),
        ("scenarios.report_ms", "scenarios.report"),
        ("scenarios.trial_ms", "scenarios.trial"),
        ("scenarios.run_ms", "scenarios.run"),
        ("orchestrate.cache_get_ms", "orchestrate.cache_get"),
        ("orchestrate.cache_put_ms", "orchestrate.cache_put"),
        ("substrate.encode_ms", "substrate.encode"),
        ("substrate.decode_ms", "substrate.decode"),
        ("substrate.marshal_ms", "substrate.marshal"),
        ("substrate.unmarshal_ms", "substrate.unmarshal"),
        ("serve.dispatch_ms", "serve.dispatch"),
        ("serve.call_ms", "serve.call"),
        ("cluster.pull_ms", "cluster.pull"),
        ("cluster.push_ms", "cluster.push"),
        ("cluster.journal_ms", "cluster.journal"),
    ):
        m[metric] = self_ms(span_name)

    # simulator counts
    selected = attr_sum("spe.sample", "n")
    written = attr_sum("spe.feed", "written")
    m["spe.samples_selected"] = selected
    m["spe.collisions"] = attr_sum("spe.collision_scan", "n")
    m["spe.records_written"] = written
    m["spe.wakeups"] = attr_sum("spe.feed", "wakeups")
    m["spe.written_ratio"] = written / selected if selected else 0.0
    nmo_ns = sum(s.dur for s in by_name["nmo.run"])
    m["nmo.run_ms"] = _ms(nmo_ns)
    m["nmo.ns_per_sample"] = nmo_ns / selected if selected else 0.0

    # orchestration
    gets = by_name["orchestrate.cache_get"]
    hits = sum((s.attrs or {}).get("hit", 0) for s in gets)
    m["orchestrate.cache_hit_ratio"] = hits / len(gets) if gets else 0.0
    m["orchestrate.trials_executed"] = len(by_name["scenarios.trial"])
    trial_starts: dict[str, list[int]] = defaultdict(list)
    for s in by_name["scenarios.trial"]:
        if s.trace is not None:
            trial_starts[s.trace].append(s.t0)
    waits = []
    for s in sorted(by_name["orchestrate.pool_submit"], key=lambda s: s.t1):
        starts = trial_starts.get(s.trace)
        later = [t for t in starts or () if t >= s.t0]
        if later:
            first = min(later)
            starts.remove(first)
            waits.append(first - s.t1)
    m["orchestrate.pool_wait_p50_ms"], counts["orchestrate.pool_wait_p50_ms"] = (
        _p50_ms(waits)
    )
    m["substrate.bytes"] = attr_sum("substrate.encode", "bytes")

    # serving: per process, queue admission -> first dispatch or landing
    per_pid: dict[int, dict[str, list[Span]]] = defaultdict(lambda: defaultdict(list))
    for s in spans:
        if s.role in SERVE_ROLES:
            per_pid[s.pid][s.name].append(s)
    queue_waits = []
    landed = cached = submitted = 0
    for names in per_pid.values():
        first_submit: dict[str, int] = {}
        for s in names["orchestrate.pool_submit"]:
            if s.trace is not None:
                first_submit[s.trace] = min(first_submit.get(s.trace, s.t1), s.t1)
        first_land: dict[str, int] = {}
        for s in names["serve.land_row"]:
            first_land[s.trace] = min(first_land.get(s.trace, s.t1), s.t1)
            landed += 1
            cached += s.attrs["cached"]
        submitted += len(names["orchestrate.pool_submit"])
        for q in names["serve.queue_submit"]:
            events = [first_submit[k] for k in q.attrs["keys"]
                      if k in first_submit and first_submit[k] >= q.t0]
            if q.trace in first_land:
                events.append(first_land[q.trace])
            if events:
                queue_waits.append(min(events) - q.t1)
    m["serve.queue_wait_p50_ms"], counts["serve.queue_wait_p50_ms"] = _p50_ms(queue_waits)
    m["serve.fast_path_ratio"] = cached / landed if landed else 0.0
    rode = (landed - cached) - submitted
    m["serve.dedup_ratio"] = max(0, rode) / submitted if submitted else 0.0
    m["serve.connects"] = attr_sum("serve.connect", "opened")

    # rows: front-end landing -> the benchmark client receives the row
    front_lands = {
        (s.trace, s.attrs["index"]): s
        for s in by_name["serve.land_row"] if s.role == front_role
    }
    received = [s for s in by_name["serve.row_recv"] if s.role == "bench"]
    deliveries = [
        r.t0 - front_lands[(r.trace, r.attrs["index"])].t1
        for r in received if (r.trace, r.attrs["index"]) in front_lands
    ]
    m["serve.row_delivery_p50_ms"], counts["serve.row_delivery_p50_ms"] = (
        _p50_ms(deliveries)
    )

    # cluster
    http = [s for s in by_name["cluster.http"] if s.role == "bench"]
    coord_calls = [s for s in by_name["serve.call"] if s.role == "coordinator"]
    m["cluster.http_ms"] = max(
        0.0, _ms(sum(s.dur for s in http) - sum(s.dur for s in coord_calls))
    )
    m["cluster.connects"] = len(http) + sum(
        1 for s in by_name["cluster.http_stream"] if s.role == "bench"
    )
    shard_submit = {
        (s.pid, s.trace): s.t0 for s in by_name["serve.client"]
        if s.role == "coordinator" and s.trace is not None
    }
    rtts = [
        s.t1 - shard_submit[(s.pid, s.trace)]
        for s in by_name["serve.client_stream"]
        if s.role == "coordinator" and (s.pid, s.trace) in shard_submit
    ]
    m["cluster.shard_rtt_p50_ms"], counts["cluster.shard_rtt_p50_ms"] = _p50_ms(rtts)
    m["cluster.fsyncs"] = attr_sum("cluster.journal", "fsyncs")

    _first_row_split(spans, by_name, front_role, m, counts)

    windows = [(s.t0, s.t1) for s in spans
               if s.role == "bench" and s.name.startswith("bench.")]
    cover = [(s.t0, s.t1) for s in spans
             if s.name not in NOT_LAYER_WORK and s.t1 > s.t0]
    m["trace.residual_ratio"] = 1.0 - covered_share(windows, cover) if windows else 0.0
    m["trace.overhead_ratio"] = overhead_ratio
    return m, counts


def _first_row_split(spans, by_name, front_role, m, counts) -> None:
    """Split each computed first row's latency into four consecutive parts.

    For the first row a benchmark client received of each job: job
    submit -> the trial starts on a worker -> the trial ends -> the
    front end lands the row -> the client receives it.  The four parts
    add up to that row's first-row latency.
    """
    jobs = {s.trace: s for s in spans
            if s.role == "bench" and s.name == "bench.job" and s.trace}
    keys = {s.trace: s.attrs["keys"] for s in by_name["serve.queue_submit"]
            if s.role == front_role}
    lands = {(s.trace, s.attrs["index"]): s for s in by_name["serve.land_row"]
             if s.role == front_role}
    trials: dict[str, list[Span]] = defaultdict(list)
    for s in by_name["scenarios.trial"]:
        trials[s.trace].append(s)
    first_recv: dict[str, Span] = {}
    for r in by_name["serve.row_recv"]:
        if r.role == "bench" and (r.trace not in first_recv
                                  or r.t0 < first_recv[r.trace].t0):
            first_recv[r.trace] = r
    parts: dict[str, list[int]] = defaultdict(list)
    for job_id, recv in first_recv.items():
        land = lands.get((job_id, recv.attrs["index"]))
        job = jobs.get(job_id)
        if land is None or job is None or job_id not in keys or land.attrs["cached"]:
            continue  # unmatched, or served from a cache: no trial on its path
        key = keys[job_id][recv.attrs["index"]]
        done = [t for t in trials.get(key, ()) if job.t0 <= t.t0 and t.t1 <= land.t1]
        if not done:
            continue
        trial = max(done, key=lambda t: t.t0)
        parts["first_row.to_trial_p50_ms"].append(trial.t0 - job.t0)
        parts["first_row.trial_p50_ms"].append(trial.dur)
        parts["first_row.to_land_p50_ms"].append(land.t1 - trial.t1)
        parts["first_row.delivery_p50_ms"].append(recv.t0 - land.t1)
    for metric in ("first_row.to_trial_p50_ms", "first_row.trial_p50_ms",
                   "first_row.to_land_p50_ms", "first_row.delivery_p50_ms"):
        m[metric], counts[metric] = _p50_ms(parts[metric])
