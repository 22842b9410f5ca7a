"""In-memory span tracer installed around the public functions of each layer.

The benchmark never edits the program: :func:`install` replaces module
and class attributes of ``repro`` with thin wrappers that time each call
and record a span ``(id, parent id, name, trace id, start ns, end ns,
attrs)``.  Spans stay in memory and each process writes its own file
once, when it ends: the benchmark process and server processes at the
end of ``main``, forked pool workers from multiprocessing's exit hook.

Wrappers must be installed before any pool forks, so forked workers
inherit them; a forked child starts with an empty span list and its own
role (``<parent role>-worker``).  Times come from
``time.perf_counter_ns`` (``CLOCK_MONOTONIC`` on Linux), one clock for
every process on the host, so spans of different processes line up.
"""

from __future__ import annotations

import functools
import itertools
import json
import multiprocessing.util
import os
import tempfile
import threading
import time
from pathlib import Path
from typing import Any, Callable

_now = time.perf_counter_ns
_NO_RESULT = object()


class Tracer:
    """Span buffer of one process; records are appended lock-free (GIL)."""

    def __init__(self, role: str, out_dir: str | os.PathLike) -> None:
        self.role = role
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = stack = []
            return stack

    def current(self) -> int:
        """Id of the innermost open span on this thread (0 = none)."""
        stack = self._stack()
        return stack[-1] if stack else 0

    def instant(self, name: str, trace: str | None, attrs: dict | None = None) -> None:
        """A zero-length span: something observed at one moment."""
        t = _now()
        self.spans.append((next(self._ids), self.current(), name, trace, t, t, attrs))

    def span(self, name: str, trace: str | None = None) -> "_Span":
        """Context manager recording one span (the benchmark's own roots)."""
        return _Span(self, name, trace)

    def wrap(
        self,
        fn: Callable,
        name: str,
        *,
        trace: Callable | None = None,
        attrs: Callable | None = None,
        pre: Callable | None = None,
        name_of: Callable | None = None,
    ) -> Callable:
        """A stack-nested span around every call of ``fn``.

        ``trace(args, kwargs, result)`` and ``attrs(args, kwargs, result,
        pre_state)`` derive the trace id and counts; ``result`` is
        ``None`` when the call raised.  ``pre(args, kwargs)`` runs before
        the call; ``name_of(args, kwargs)`` overrides the span name.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else 0
            sid = next(tracer._ids)
            stack.append(sid)
            state = pre(args, kwargs) if pre is not None else None
            result = _NO_RESULT
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = _now()
                stack.pop()
                ok = result is not _NO_RESULT
                value = result if ok else None
                tracer.spans.append((
                    sid,
                    parent,
                    name_of(args, kwargs) if name_of is not None else name,
                    trace(args, kwargs, value) if trace is not None else None,
                    t0,
                    t1,
                    attrs(args, kwargs, value, state)
                    if attrs is not None and ok else None,
                ))

        return wrapper

    def wrap_gen(
        self,
        fn: Callable,
        name: str,
        *,
        trace: Callable,
        on_item: Callable | None = None,
    ) -> Callable:
        """A span from a generator's creation to its exhaustion.

        Generator spans are not pushed on the thread's stack (the caller
        runs between items), so they never parent other spans.
        ``on_item(trace_id, item)`` sees every yielded item.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = tracer.current()
            sid = next(tracer._ids)
            t0 = _now()
            tid = trace(args, kwargs, None)

            def items():
                try:
                    for item in fn(*args, **kwargs):
                        if on_item is not None:
                            on_item(tid, item)
                        yield item
                finally:
                    tracer.spans.append(
                        (sid, parent, name, tid, t0, _now(), None)
                    )

            return items()

        return wrapper

    # -- process lifecycle -------------------------------------------------

    def _forked(self) -> None:
        """In a forked child: drop the parent's spans and open stack."""
        self.pid = os.getpid()
        self.spans = []
        self._local = threading.local()
        if not self.role.endswith("-worker"):
            self.role += "-worker"

    def _arm_exit_flush(self) -> None:
        """In a multiprocessing child: write spans when the child exits."""
        multiprocessing.util.Finalize(self, self.flush, exitpriority=100)

    def flush(self) -> Path:
        """Write this process's spans to ``<out_dir>/<role>-<pid>-<ns>.json``."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / f"{self.role}-{self.pid}-{time.time_ns()}.json"
        fd, tmp = tempfile.mkstemp(dir=self.out_dir, suffix=".tmp")
        with os.fdopen(fd, "w") as f:
            json.dump({"role": self.role, "pid": self.pid, "spans": self.spans}, f)
        os.replace(tmp, path)
        self.spans = []
        return path


class _Span:
    def __init__(self, tracer: Tracer, name: str, trace: str | None) -> None:
        self.tracer, self.name, self.trace = tracer, name, trace

    def __enter__(self) -> "_Span":
        stack = self.tracer._stack()
        self.parent = stack[-1] if stack else 0
        self.sid = next(self.tracer._ids)
        stack.append(self.sid)
        self.t0 = _now()
        return self

    def __exit__(self, *exc) -> None:
        t1 = _now()
        self.tracer._stack().pop()
        self.tracer.spans.append(
            (self.sid, self.parent, self.name, self.trace, self.t0, t1, None)
        )


def load_spans(out_dir: str | os.PathLike) -> list[dict]:
    """Every span file under ``out_dir``: ``[{"role", "pid", "spans"}]``."""
    return [
        json.loads(p.read_text()) for p in sorted(Path(out_dir).glob("*.json"))
    ]


# -- installation ----------------------------------------------------------


def _trial_key(spec: Any) -> str | None:
    from repro.orchestrate import TrialSpec, cache_key

    if isinstance(spec, TrialSpec):
        return cache_key(spec.experiment, spec.config, spec.seed)
    return None


def _job_id_of(result: Any) -> str | None:
    return result.get("job_id") if isinstance(result, dict) else None


def _nbytes(buf: Any) -> int:
    try:
        return len(buf)
    except TypeError:
        return 0


def install(role: str, out_dir: str | os.PathLike) -> Tracer:
    """Wrap every traced function of the ``repro`` layers; returns the tracer.

    Call once per process, before any worker pool forks.
    """
    import repro.analysis.sampling as analysis_sampling
    import repro.cluster.replicate as replicate
    import repro.scenarios.trials as trials
    import repro.spe.sampler as sampler
    import repro.substrate as substrate
    import repro.substrate.codec as codec
    import repro.substrate.shm as shm
    import repro.workloads.registry as registry
    from repro.cluster.http import HttpClusterClient
    from repro.cluster.journal import JobJournal
    from repro.cpu.pipeline import PipelineModel
    from repro.machine.statcache import StatCacheModel
    from repro.nmo.profiler import NmoProfiler
    from repro.orchestrate import ResultCache, WorkerPool
    from repro.scenarios.session import Session
    from repro.serve.client import ServerClient
    from repro.serve.queue import Job, JobQueue
    from repro.serve.server import ServerBase
    from repro.spe.driver import SpeDriver
    from repro.spe.strategies import (
        HybridStrategy,
        PeriodicStrategy,
        PoissonStrategy,
        _HashFilterStrategy,
    )
    from repro.workloads.base import PhaseOpSource

    t = Tracer(role, out_dir)
    os.register_at_fork(after_in_child=t._forked)
    multiprocessing.util.register_after_fork(t, Tracer._arm_exit_flush)

    def method(cls, attr, name, **kw):
        setattr(cls, attr, t.wrap(getattr(cls, attr), name, **kw))

    def function(modules, attr, name, **kw):
        wrapped = t.wrap(getattr(modules[0], attr), name, **kw)
        for m in modules:
            setattr(m, attr, wrapped)
        return wrapped

    def driver_counts(a, k, r, s):
        return {"written": int(r.n_written), "wakeups": int(r.n_wakeups)}

    def row_received(tid, event):
        if event.get("event") == "row":
            t.instant("serve.row_recv", tid, {"index": event["index"]})

    def job_arg(a, k, r):
        return a[1] if len(a) > 1 else k.get("job_id")

    # simulator layers (run inside trials, in pool workers)
    function([registry, trials], "make_workload", "workloads.build")
    method(PhaseOpSource, "ops_at", "workloads.op_gen")
    method(PhaseOpSource, "levels_at", "workloads.op_gen")
    method(StatCacheModel, "draw_levels", "machine.draw_levels")
    for cls in (PeriodicStrategy, PoissonStrategy, _HashFilterStrategy,
                HybridStrategy):
        method(cls, "sample", "spe.sample",
               attrs=lambda a, k, r, s: {"n": int(r[0].size)})
    function([sampler], "collision_scan", "spe.collision_scan",
             attrs=lambda a, k, r, s: {"n": int(r[1])})
    method(SpeDriver, "feed", "spe.feed", attrs=driver_counts)
    method(SpeDriver, "flush", "spe.feed", attrs=driver_counts)
    method(PipelineModel, "op_latencies", "cpu.op_latencies")
    method(NmoProfiler, "run", "nmo.run")
    function([analysis_sampling], "exhaustive_page_hotness",
             "analysis.ground_truth")
    function([analysis_sampling], "score_sampling", "analysis.score")

    # scenario layer: trial recipes keep their import path (pool pickles
    # them by reference) and carry the trial's cache key as trace id
    for kind, fn in list(trials.TRIAL_FNS.items()):
        wrapped = function([trials], fn.__name__, "scenarios.trial",
                           trace=lambda a, k, r: _trial_key(a[1]))
        trials.TRIAL_FNS[kind] = wrapped
    method(Session, "plan", "scenarios.plan")
    method(Session, "build_report", "scenarios.report")
    method(Session, "run", "scenarios.run")

    # orchestration and result substrate
    method(ResultCache, "get", "orchestrate.cache_get",
           trace=lambda a, k, r: a[1],
           attrs=lambda a, k, r, s: {
               "hit": int(r is not (a[2] if len(a) > 2 else k.get("default")))
           })
    method(ResultCache, "put", "orchestrate.cache_put",
           trace=lambda a, k, r: a[1])
    method(WorkerPool, "submit", "orchestrate.pool_submit",
           trace=lambda a, k, r: _trial_key(a[2]))
    function([codec, substrate], "encode", "substrate.encode",
             attrs=lambda a, k, r, s: {"bytes": _nbytes(r or b"")})
    function([codec, substrate], "decode", "substrate.decode",
             attrs=lambda a, k, r, s: {"bytes": _nbytes(a[0])})
    function([shm], "marshal", "substrate.marshal")
    function([shm], "unmarshal", "substrate.unmarshal")

    # serving layer
    method(JobQueue, "submit", "serve.queue_submit",
           trace=lambda a, k, r: r.id if r is not None else None,
           attrs=lambda a, k, r, s: {"keys": list(a[3] if len(a) > 3 else k["keys"])})
    method(Job, "land_row", "serve.land_row",
           trace=lambda a, k, r: a[0].id,
           attrs=lambda a, k, r, s: {
               "index": a[1], "cached": int(a[3] if len(a) > 3 else k["cached"])
           })
    method(ServerBase, "dispatch", "serve.dispatch",
           trace=lambda a, k, r: a[1].get("job_id"),
           name_of=lambda a, k: (
               "serve.dispatch_stream" if a[1].get("op") == "stream"
               else "serve.dispatch"
           ))
    method(ServerBase, "call", "serve.call",
           trace=lambda a, k, r: a[2].get("job_id") or _job_id_of(r),
           attrs=lambda a, k, r, s: {"op": a[1]})
    method(ServerClient, "connect", "serve.connect",
           pre=lambda a, k: a[0]._sock is None,
           attrs=lambda a, k, r, s: {"opened": int(s)})
    method(ServerClient, "submit", "serve.client",
           trace=lambda a, k, r: _job_id_of(r))
    for attr in ("results", "status"):
        method(ServerClient, attr, "serve.client", trace=job_arg)
    ServerClient.stream = t.wrap_gen(
        ServerClient.stream, "serve.client_stream",
        trace=job_arg, on_item=row_received,
    )

    # cluster layer
    method(HttpClusterClient, "submit", "cluster.http",
           trace=lambda a, k, r: _job_id_of(r))
    for attr in ("results", "status"):
        method(HttpClusterClient, attr, "cluster.http", trace=job_arg)
    HttpClusterClient.stream = t.wrap_gen(
        HttpClusterClient.stream, "cluster.http_stream",
        trace=job_arg, on_item=row_received,
    )
    method(replicate.CacheReplicator, "pull", "cluster.pull",
           attrs=lambda a, k, r, s: {"n": r})
    method(replicate.CacheReplicator, "push", "cluster.push",
           attrs=lambda a, k, r, s: {"n": r})
    method(JobJournal, "append", "cluster.journal",
           trace=lambda a, k, r: k.get("job_id"),
           pre=lambda a, k: a[0].synced,
           attrs=lambda a, k, r, s: {"fsyncs": a[0].synced - s})
    return t
