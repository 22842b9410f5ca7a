"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload exhibit_sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` spends half of ``--seconds`` untraced and half traced, and
prints the per-layer metrics of the traced half (with the tracing
overhead against the untraced half).  Every metric is printed by name
with its unit and sample count; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is non-zero when an output check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import tempfile
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
if str(_ROOT) not in sys.path:  # run as a script: import from the checkout
    sys.path[0:1] = [str(_ROOT / "src"), str(_ROOT)]

from perfbench import layers, procs, specs  # noqa: E402
from perfbench.stats import Tally, percentile, rank, supported  # noqa: E402
from perfbench.tracer import install, load_spans  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    Context,
    Outcome,
    ServicePhase,
    exhibit_phase,
    exhibit_setup,
    service_setup,
    warm_up,
)

WORKLOADS = ("exhibit_sweep", "serve_mix", "cluster_mix")

#: the process the benchmark's clients talk to, per workload
FRONT_ROLE = {"exhibit_sweep": "bench", "serve_mix": "server",
              "cluster_mix": "coordinator"}

#: set-up repetitions in an untraced run; ``setup_s`` is their median
SETUP_CYCLES = 3


def run_phase(
    workload: str, ctx: Context, seconds: float, cycles: int, tag: str = "run"
) -> Outcome:
    """Set up (``cycles`` times, or once untimed when 0), then measure."""
    out = Outcome()
    if workload == "exhibit_sweep":
        if cycles:
            exhibit_setup(ctx, cycles, out)
        else:
            warm_up()
        exhibit_phase(ctx, seconds, out)
        return out
    phase = ServicePhase("serve" if workload == "serve_mix" else "cluster", ctx)
    try:
        if cycles:
            service_setup(phase, cycles, out)
        else:
            phase.bring_up(tag, out)
        phase.timed(seconds, out)
    finally:
        if phase.service is not None:
            phase.tear_down(out)
    phase.check(out)
    return out


def end_to_end(out: Outcome, peak_rss_mib: float) -> list[tuple[str, float, str, str]]:
    """``(name, value, unit, sample note)`` for every end-to-end metric."""
    rows = []

    def timing(name: str, values: list[float], p: int) -> None:
        if not values:
            raise RuntimeError(f"no samples for {name}")
        n = len(values)
        note = f"n={n}"
        if p != 50 and not supported(n, p):
            note += f" ({n - rank(n, p)} beyond p{p}; fewer than 10)"
        rows.append((name, percentile(values, p), "ms", note))

    if not out.sweep_s or not out.setup_s:
        raise RuntimeError("no complete pass or no set-up measured")
    rows.append(("sweep_s", percentile(out.sweep_s, 50), "s", f"n={len(out.sweep_s)}"))
    rows.append(("jobs_per_s", out.jobs_per_s, "jobs/s", f"n={out.jobs}"))
    for cls, values in (("replay", out.replay_ms), ("cold", out.cold_ms),
                        ("first_row", out.first_row_ms)):
        timing(f"{cls}_p50_ms", values, 50)
        timing(f"{cls}_p90_ms", values, 90)
    rows.append(("setup_s", percentile(out.setup_s, 50), "s", f"n={len(out.setup_s)}"))
    rows.append(("peak_rss_mib", peak_rss_mib, "MiB", "n=1"))
    if out.slowness:
        out.notes.append(
            f"samples divided by host slowness: median {percentile(out.slowness, 50):.4f}, "
            f"min {min(out.slowness):.4f}, max {max(out.slowness):.4f} "
            f"(n={len(out.slowness)})"
        )
    return rows


def traced(workload: str, ctx: Context, seconds: float) -> tuple[Outcome, list]:
    """Half the time untraced, half traced; per-layer rows of the traced half."""
    plain = run_phase(workload, ctx, seconds / 2, cycles=0, tag="plain")
    ctx.trace_dir = ctx.work / "spans"
    ctx.tracer = install("bench", ctx.trace_dir)
    out = run_phase(workload, ctx, seconds / 2, cycles=0, tag="traced")
    ctx.tracer.flush()
    if workload == "exhibit_sweep":
        overhead = (percentile(out.sweep_s, 50) / percentile(plain.sweep_s, 50)) - 1
    else:
        overhead = plain.jobs_per_s / out.jobs_per_s - 1
    values, counts = layers.per_layer(
        layers.load(load_spans(ctx.trace_dir)), FRONT_ROLE[workload], overhead
    )
    rows = [
        (name, values[name], unit,
         f"n={counts[name]}" if name in counts else "")
        for name, unit in layers.PER_LAYER
    ]
    out.tally.merge(plain.tally)
    out.notes += plain.notes
    return out, rows


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=specs.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    work = _ROOT / ".perfbench_work" / f"{os.getpid()}-{time.time_ns()}"
    (work / "tmp").mkdir(parents=True)
    os.environ["TMPDIR"] = str(work / "tmp")
    tempfile.tempdir = None  # re-read TMPDIR
    shm_before = procs.shm_segments()
    ctx = Context(seed=args.seed, work=work)
    rss = procs.PeakRss()
    rss.start()
    try:
        if args.trace:
            out, rows = traced(args.workload, ctx, args.seconds)
            rss.stop()
        else:
            out = run_phase(args.workload, ctx, args.seconds, SETUP_CYCLES)
            rows = end_to_end(out, rss.stop())
        procs.stop_resource_tracker()
        hygiene = Tally()
        for leak in procs.leaks(shm_before, work / "tmp"):
            hygiene.fail(leak)
        if not hygiene.failed:
            hygiene.ok()
        out.tally.merge(hygiene)
    finally:
        _reap(work)

    tally = out.tally
    correct = tally.wrong_results == 0
    print(f"workload {args.workload}  seed {args.seed}  "
          f"seconds {args.seconds:g}  trace {args.trace}")
    for name, value, unit, note in rows:
        print(f"  {name:<30} {value:>14.4f} {unit:<7} {note}")
    print(f"  {'fail_ratio':<30} {tally.fail_ratio:>14.4f} {'ratio':<7} "
          f"{tally.failed} of {tally.attempted} operations")
    for reason, n in sorted(tally.reasons.items()):
        print(f"  failure x{n}: {reason}")
    for note in out.notes:
        print(f"  {note}")
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, value, unit, _ in rows},
    }))
    return 0 if correct else 1


def _reap(work: Path) -> None:
    """Kill whatever is still running below this process; drop the work dir."""
    for pid in procs.descendants(os.getpid()):
        try:
            os.kill(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while True:
        try:
            if os.waitpid(-1, os.WNOHANG) == (0, 0):
                break
        except ChildProcessError:
            break
    shutil.rmtree(work, ignore_errors=True)
    parent = work.parent
    if parent.is_dir() and not any(parent.iterdir()):
        parent.rmdir()


if __name__ == "__main__":
    sys.exit(main())
