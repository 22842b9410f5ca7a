"""Perf-smoke gate: compare a fresh ``BENCH_substrate.json`` against the
checked-in baseline and fail on regressions.

Two kinds of failure::

    PYTHONPATH=src python benchmarks/check_regression.py \
        BENCH_substrate.json benchmarks/baselines/BENCH_substrate.baseline.json

* **throughput regression** — an entry's op/s fell below ``baseline /
  max-slowdown`` (or its wall seconds grew past ``baseline *
  max-slowdown``).  The default factor of 2 absorbs machine-to-machine
  variance while catching an accidentally de-vectorized hot path;
* **speedup floor** — entries that benchmark a vectorized path against
  its retained reference carry a ``min_speedup`` (5x for the
  collision-heavy scan, 10x for the small-aux profile run).  Floors
  are ratios on the *same* machine, so they are checked against the
  fresh run alone and are machine-independent.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def check(current: dict, baseline: dict, max_slowdown: float) -> list[str]:
    failures: list[str] = []
    cur_entries = current.get("entries", {})
    base_entries = baseline.get("entries", {})
    for name, entry in sorted(cur_entries.items()):
        floor = entry.get("min_speedup")
        speedup = entry.get("speedup_vs_reference")
        if floor is not None and speedup is not None and speedup < floor:
            failures.append(
                f"{name}: speedup vs reference {speedup:.2f}x is below the "
                f"{floor:.1f}x floor"
            )
        base = base_entries.get(name)
        if base is None or base.get("metric") != entry.get("metric"):
            continue
        value, ref = entry["value"], base["value"]
        if entry["metric"] == "ops_per_s":
            if value < ref / max_slowdown:
                failures.append(
                    f"{name}: {value:,.0f} op/s is more than "
                    f"{max_slowdown:.1f}x below baseline {ref:,.0f} op/s"
                )
        elif entry["metric"] == "seconds":
            if value > ref * max_slowdown:
                failures.append(
                    f"{name}: {value:.3f}s is more than {max_slowdown:.1f}x "
                    f"above baseline {ref:.3f}s"
                )
    missing = sorted(set(base_entries) - set(cur_entries))
    for name in missing:
        failures.append(f"{name}: present in baseline but missing from the run")
    return failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("current", help="freshly generated BENCH_substrate.json")
    ap.add_argument("baseline", help="checked-in baseline JSON")
    ap.add_argument(
        "--max-slowdown", type=float, default=2.0,
        help="tolerated per-entry slowdown factor vs the baseline (default 2)",
    )
    args = ap.parse_args(argv)
    current = json.loads(Path(args.current).read_text())
    baseline = json.loads(Path(args.baseline).read_text())
    failures = check(current, baseline, args.max_slowdown)
    if failures:
        print("PERF REGRESSION:")
        for f in failures:
            print(f"  - {f}")
        return 1
    n = len(current.get("entries", {}))
    print(f"perf smoke OK: {n} entries within {args.max_slowdown:.1f}x of baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
