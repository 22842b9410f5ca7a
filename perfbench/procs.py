"""Processes the benchmark starts: launch, readiness, stop, memory, leaks.

Servers run as ``python -m perfbench.host <role> -- <repro CLI args>``,
each in its own session so a hung one can be killed with its pool
workers.  Their temp files go to ``TMPDIR`` inside the benchmark's work
directory, which must be empty again after every workload.
"""

from __future__ import annotations

import os
import re
import selectors
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

#: the checkout root (holds ``src/`` and ``perfbench/``)
ROOT = Path(__file__).resolve().parent.parent

_ADDR = re.compile(r" on ([0-9.]+):(\d+)")


def child_env(work: Path) -> dict[str, str]:
    """Environment for every benchmark subprocess."""
    env = dict(os.environ)
    paths = [str(ROOT / "src"), str(ROOT)]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    env["TMPDIR"] = str(work / "tmp")
    return env


class Host:
    """One ``perfbench.host`` subprocess running a ``repro`` CLI command."""

    def __init__(
        self,
        role: str,
        argv: list[str],
        work: Path,
        trace_dir: Path | None = None,
    ) -> None:
        self.role = role
        cmd = [sys.executable, "-m", "perfbench.host", role]
        if trace_dir is not None:
            cmd += ["--trace-dir", str(trace_dir)]
        self._log_path = work / f"{role}-{time.time_ns()}.log"
        self._log = open(self._log_path, "wb")
        self.proc = subprocess.Popen(
            cmd + ["--", *argv],
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=child_env(work),
            cwd=ROOT,
            start_new_session=True,
        )
        self._out = b""

    def addresses(self, count: int, timeout: float) -> list[tuple[str, int]]:
        """The first ``count`` ``... on HOST:PORT`` banner addresses."""
        found: list[tuple[str, int]] = []
        deadline = time.monotonic() + timeout
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            while len(found) < count:
                left = deadline - time.monotonic()
                if left <= 0 or not sel.select(left):
                    raise RuntimeError(
                        f"{self.role} not ready after {timeout}s: {self._tail()}"
                    )
                chunk = os.read(self.proc.stdout.fileno(), 65536)
                if not chunk:
                    raise RuntimeError(
                        f"{self.role} exited with {self.proc.wait()} before "
                        f"ready: {self._tail()}"
                    )
                self._out += chunk
                *lines, self._out = self._out.split(b"\n")
                for line in lines:
                    m = _ADDR.search(line.decode())
                    if m:
                        found.append((m.group(1), int(m.group(2))))
        return found

    def _tail(self) -> str:
        self._log.flush()
        return self._log_path.read_bytes()[-2000:].decode(errors="replace")

    def wait(self, timeout: float) -> bool:
        """Wait for a clean exit; kill the process group if it hangs."""
        try:
            code = self.proc.wait(timeout=timeout)
            clean = code == 0
        except subprocess.TimeoutExpired:
            self.kill()
            clean = False
        self.proc.stdout.close()
        self._log.close()
        return clean

    def kill(self) -> None:
        try:
            os.killpg(self.proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        self.proc.wait()


def children(pid: int) -> list[int]:
    """Direct children of ``pid`` (any of its threads may have forked)."""
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except FileNotFoundError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as f:
                out.extend(int(c) for c in f.read().split())
        except FileNotFoundError:
            continue
    return out


def descendants(pid: int) -> list[int]:
    out, todo = [], children(pid)
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children(p))
    return out


def _cmdline(pid: int) -> str:
    try:
        with open(f"/proc/{pid}/cmdline", "rb") as f:
            return f.read().replace(b"\0", b" ").decode(errors="replace")
    except FileNotFoundError:
        return ""


def _hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except (FileNotFoundError, ProcessLookupError):
        pass
    return 0


class PeakRss(threading.Thread):
    """Peak over time of the summed peak RSS of this process and its children.

    Sampled every ``interval`` seconds; each process contributes its own
    high-water mark (``VmHWM``) while it is alive.
    """

    def __init__(self, interval: float = 0.02) -> None:
        super().__init__(name="perfbench-rss", daemon=True)
        self.interval = interval
        self.peak_kib = 0
        self._stop_evt = threading.Event()

    def sample(self) -> None:
        me = os.getpid()
        total = sum(_hwm_kib(p) for p in [me, *descendants(me)])
        self.peak_kib = max(self.peak_kib, total)

    def run(self) -> None:
        while not self._stop_evt.wait(self.interval):
            self.sample()

    def stop(self) -> float:
        """Stop sampling; returns the peak in MiB."""
        self._stop_evt.set()
        self.join()
        self.sample()
        return self.peak_kib / 1024


def stop_resource_tracker() -> None:
    """End multiprocessing's shared-memory resource tracker, if running.

    Attaching a shared-memory segment starts it as a child process; it
    otherwise outlives the benchmark by an instant, unwaited.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is not None:
        tracker._stop()


def shm_segments() -> set[str]:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:
        return set()


def leaks(shm_before: set[str], tmp: Path) -> list[str]:
    """Child processes, shared-memory segments and temp files left behind."""
    found = []
    for pid in descendants(os.getpid()):
        cmd = _cmdline(pid)
        if cmd and "resource_tracker" not in cmd:
            found.append(f"child process {pid} still running: {cmd[:80]}")
    for name in sorted(shm_segments() - shm_before):
        found.append(f"shared-memory segment /dev/shm/{name} left behind")
    if tmp.is_dir():
        for entry in sorted(tmp.iterdir()):
            found.append(f"temp entry {entry.name} left behind")
    return found
