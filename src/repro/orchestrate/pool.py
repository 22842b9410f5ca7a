"""Persistent worker pool: long-lived processes with an event stream.

Every parallel trial in the repo runs on a :class:`WorkerPool`: a
:class:`~repro.orchestrate.runner.ParallelRunner` opens one per
``map`` call, and the serve scheduler keeps one for the server's
lifetime so that jobs stop paying pool spin-up and teardown.

* workers are plain ``multiprocessing`` processes, forked **once** and
  reused across any number of tasks — worker PIDs stay stable and no
  descriptors accumulate per task (pinned by
  ``tests/orchestrate/test_worker_pool.py``),
* task completion is reported as an *event stream*
  (``done`` / ``error`` / ``lost``), which is what lets the serve
  scheduler stream partial results and interleave trials from many
  jobs on one pool,
* a worker killed mid-task is detected (``lost`` event naming the dead
  PID), and a replacement worker is spawned so capacity never decays —
  the fault-tolerance substrate behind trial retries and ``partial``
  job states in :mod:`repro.serve`.

Tasks are ``(fn, arg)`` pairs; both must be picklable.  Events are
tuples ``(kind, task_id, payload)`` where payload is the result
(``done``), the raised exception or its string rendering (``error``),
or a human-readable loss reason (``lost``).  A raised exception arrives
with the worker-side traceback chained as its ``__cause__``.

Large ``done`` payloads do not travel through the event pipe: workers
encode them into the columnar substrate format and ship only a
:class:`~repro.substrate.ShmResult` handle to a shared-memory segment
(see :mod:`repro.substrate.shm`); the parent reattaches and decodes at
the single delivery point in :meth:`WorkerPool.next_event`.  Small
results and results the substrate cannot encode take the pipe.
"""

from __future__ import annotations

import collections
import itertools
import multiprocessing as mp
import os
import pickle
import queue as queuelib
import time
import traceback
from typing import Any, Callable

from repro.errors import ReproError, SubstrateError
from repro.substrate import shm as _shm

#: event kinds a pool can report for a submitted task
EVENT_KINDS = ("done", "error", "lost")

_STOP = None  # sentinel a worker interprets as "exit the loop"


class _RemoteTraceback(Exception):
    """A worker-side traceback, chained as the cause of a task's error."""


def _worker_main(tasks: mp.Queue, events: mp.Queue) -> None:
    """Worker loop: pull ``(task_id, fn, arg)``, announce, run, report.

    The ``start`` announcement (carrying the worker PID) is what lets
    the parent attribute an in-flight task to a worker that later dies;
    exceptions are shipped back pickled when possible, as strings
    otherwise, so one bad trial never wedges the pool — either way
    with the formatted traceback alongside.
    """
    while True:
        item = tasks.get()
        if item is _STOP:
            break
        task_id, fn, arg = item
        events.put(("start", task_id, os.getpid()))
        try:
            result = fn(arg)
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            try:
                pickle.dumps(exc)
                payload: Any = exc
            except Exception:
                payload = f"{type(exc).__name__}: {exc}"
            events.put(("error", task_id, (payload, traceback.format_exc())))
        else:
            events.put(("done", task_id, _shm.marshal(result)))


class WorkerPool:
    """A fixed-capacity pool of persistent, crash-tolerant workers.

    ``submit`` returns a task id; ``next_event`` delivers completions
    in whatever order workers finish.  The pool never raises on a
    worker crash — it reports a ``lost`` event for the task the dead
    worker was running and respawns a replacement, so callers decide
    the policy (retry, degrade, fail).
    """

    def __init__(self, workers: int = 2) -> None:
        if workers < 1:
            raise ReproError(f"worker pool needs >= 1 worker, got {workers}")
        self.workers = workers
        # fork keeps startup cheap, lets tests ship module-local fns and
        # hands workers the parent's module state (e.g. reference_path)
        self._mp = mp.get_context("fork")
        self._tasks: mp.Queue = self._mp.Queue()
        self._events: mp.Queue = self._mp.Queue()
        self._procs: list = []
        self._task_ids = itertools.count()
        #: task_id -> worker pid, set once the worker announces "start"
        self._started: dict[int, int] = {}
        #: task ids submitted and not yet reported done/error/lost
        self._outstanding: set[int] = set()
        #: losses detected but not yet delivered via next_event
        self._lost_backlog: collections.deque = collections.deque()
        self._closed = False
        for _ in range(workers):
            self._spawn()

    # -- lifecycle ---------------------------------------------------------

    def _spawn(self) -> None:
        p = self._mp.Process(
            target=_worker_main, args=(self._tasks, self._events), daemon=True
        )
        p.start()
        self._procs.append(p)

    def pids(self) -> list[int]:
        """PIDs of the live workers (stable while nothing crashes)."""
        return [p.pid for p in self._procs if p.is_alive()]

    def close(self, timeout: float = 5.0) -> None:
        """Stop every worker; idempotent."""
        if self._closed:
            return
        self._closed = True
        for _ in self._procs:
            try:
                self._tasks.put(_STOP)
            except (ValueError, OSError):
                break
        deadline = time.monotonic() + timeout
        for p in self._procs:
            # a worker cannot exit while its unread events fill the pipe
            while p.is_alive() and time.monotonic() < deadline:
                self._discard_events()
                p.join(timeout=0.05)
            if p.is_alive():
                p.terminate()
                p.join(timeout=1.0)
        self._discard_events()
        for q in (self._tasks, self._events):
            q.close()
            q.cancel_join_thread()
        self._procs.clear()

    def _discard_events(self) -> None:
        """Drop undelivered events, freeing their shared-memory results."""
        while True:
            try:
                ev = self._events.get_nowait()
            except (queuelib.Empty, ValueError, OSError):
                return
            _shm.discard(ev[2])

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- task flow ---------------------------------------------------------

    def submit(self, fn: Callable[[Any], Any], arg: Any) -> int:
        """Queue one task; returns its id (matched by later events)."""
        if self._closed:
            raise ReproError("worker pool is closed")
        task_id = next(self._task_ids)
        self._outstanding.add(task_id)
        self._tasks.put((task_id, fn, arg))
        return task_id

    @property
    def outstanding(self) -> int:
        """Tasks submitted whose terminal event has not been delivered."""
        return len(self._outstanding)

    def next_event(
        self, timeout: float | None = None
    ) -> tuple[str, int, Any] | None:
        """The next terminal event, or ``None`` if ``timeout`` expires.

        Internally consumes ``start`` announcements (tracking which
        worker runs which task) and converts detected worker deaths
        into ``lost`` events for the tasks they were running.
        """
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            if self._lost_backlog:
                task_id, reason = self._lost_backlog.popleft()
                return ("lost", task_id, reason)
            try:
                kind, task_id, payload = self._events.get(timeout=0.05)
            except queuelib.Empty:
                self._reap()
                if self._lost_backlog:
                    continue
                if deadline is not None and time.monotonic() >= deadline:
                    return None
                continue
            if kind == "start":
                self._started[task_id] = payload
                continue
            if task_id not in self._outstanding:
                # late event for a task already reported lost; free its
                # shared-memory segment so the orphaned result cannot leak
                _shm.discard(payload)
                continue
            self._outstanding.discard(task_id)
            self._started.pop(task_id, None)
            if kind == "error":
                payload, tb = payload
                if isinstance(payload, BaseException):
                    payload.__cause__ = _RemoteTraceback(f'\n"""\n{tb}"""')
            elif isinstance(payload, _shm.ShmResult):
                try:
                    payload = _shm.unmarshal(payload)
                except SubstrateError as exc:
                    return ("error", task_id, f"{type(exc).__name__}: {exc}")
            return (kind, task_id, payload)

    def _reap(self) -> None:
        """Replace dead workers; queue losses for their in-flight tasks.

        Events the dead worker managed to flush before dying are
        honoured first: the queue is drained into ``_started`` (and the
        loss check skips tasks no longer outstanding), so a task that
        completed just before the crash is never misreported as lost.
        """
        dead = [(i, p) for i, p in enumerate(self._procs) if not p.is_alive()]
        if not dead:
            return
        # drain flushed events so completed-then-crashed tasks survive
        buffered = []
        while True:
            try:
                ev = self._events.get_nowait()
            except queuelib.Empty:
                break
            if ev[0] == "start":
                self._started[ev[1]] = ev[2]
            else:
                buffered.append(ev)
        for kind, task_id, payload in buffered:
            if task_id in self._outstanding:
                self._outstanding.discard(task_id)
                self._started.pop(task_id, None)
                self._events.put((kind, task_id, payload))
        for i, p in sorted(dead, reverse=True):
            p.join(timeout=0.1)
            dead_pid, exitcode = p.pid, p.exitcode
            del self._procs[i]
            if not self._closed:
                self._spawn()
            for task_id, pid in list(self._started.items()):
                if pid != dead_pid or task_id not in self._outstanding:
                    continue
                self._started.pop(task_id, None)
                self._outstanding.discard(task_id)
                self._lost_backlog.append(
                    (task_id, f"worker {dead_pid} died (exit code {exitcode})")
                )
