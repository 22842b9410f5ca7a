"""Rendering for scenario results.

The figure-style renderers moved here from ``repro.evalharness.report``
so the declarative :class:`~repro.scenarios.session.Session` and the
figure commands format results through one code path.
:func:`render_results` picks the renderer: a scenario *named* after a
paper exhibit keeps that exhibit's exact chart/table layout; anything
else falls back to its kind's generic rendering.
"""

from __future__ import annotations

import numpy as np

from repro.analysis.plotting import line_plot, table
from repro.analysis.tiering import render_tier_rows
from repro.scenarios.trials import SweepPoint


def render_sweep_table(points: list[SweepPoint], title: str) -> str:
    """Fig. 7/8-style rows: one line per (workload, period)."""
    rows = []
    for p in points:
        rows.append(
            [
                p.workload,
                p.period,
                f"{p.samples_mean:.3e}",
                f"{p.samples_std:.2e}",
                f"{p.accuracy_mean * 100:.1f}%",
                f"{p.overhead_mean * 100:.2f}%",
                f"{p.collisions_mean:.1f}",
            ]
        )
    return table(
        ["workload", "period", "samples", "std", "accuracy", "overhead", "collisions"],
        rows,
        title=title,
    )


def render_fig7(results: dict[str, list[SweepPoint]]) -> str:
    """Samples vs period per workload, log-x chart + table."""
    parts = []
    series = {}
    for name, pts in results.items():
        x = np.array([p.period for p in pts], dtype=float)
        y = np.array([max(p.samples_mean, 1.0) for p in pts])
        series[name] = (x, np.log10(y))
        parts.append(render_sweep_table(pts, f"Fig.7 ({name})"))
    parts.append(
        line_plot(series, title="Fig.7: log10(samples) vs period", logx=True)
    )
    return "\n\n".join(parts)


def render_fig8(results: dict[str, list[SweepPoint]]) -> str:
    """Accuracy / overhead / collision charts plus tables, per workload."""
    parts = []
    for metric, label, scale in (
        ("accuracy_mean", "accuracy %", 100.0),
        ("overhead_mean", "time overhead %", 100.0),
        ("collisions_mean", "sample collisions", 1.0),
    ):
        series = {}
        for name, pts in results.items():
            x = np.array([p.period for p in pts], dtype=float)
            y = np.array([getattr(p, metric) * scale for p in pts])
            series[name] = (x, y)
        parts.append(line_plot(series, title=f"Fig.8: {label} vs period", logx=True))
    for name, pts in results.items():
        parts.append(render_sweep_table(pts, f"Fig.8 ({name})"))
    return "\n\n".join(parts)


def render_fig9(rows: list[dict]) -> str:
    """Aux-buffer sweep table and chart (accuracy/overhead vs pages)."""
    tbl = table(
        ["aux pages", "accuracy", "overhead", "samples", "wakeups", "working"],
        [
            [
                r["aux_pages"],
                f"{r['accuracy'] * 100:.1f}%",
                f"{r['overhead'] * 100:.2f}%",
                r["samples"],
                r["wakeups"],
                "yes" if r["working"] else "no",
            ]
            for r in rows
        ],
        title="Fig.9: aux buffer size sweep (STREAM)",
    )
    x = np.array([r["aux_pages"] for r in rows], dtype=float)
    chart = line_plot(
        {
            "accuracy%": (x, np.array([r["accuracy"] * 100 for r in rows])),
            "overhead%x10": (x, np.array([r["overhead"] * 1000 for r in rows])),
        },
        title="Fig.9 (overhead scaled x10 for visibility)",
        logx=True,
    )
    return tbl + "\n\n" + chart


def render_fig10_fig11(rows: list[dict]) -> str:
    """Thread-sweep table plus the Fig. 10/11 overhead/throttle charts."""
    tbl = table(
        [
            "threads", "accuracy", "overhead", "collisions",
            "throttle events", "samples",
        ],
        [
            [
                r["threads"],
                f"{r['accuracy'] * 100:.1f}%",
                f"{r['overhead'] * 100:.2f}%",
                r["collisions"],
                r["throttle_events"],
                r["samples"],
            ]
            for r in rows
        ],
        title="Fig.10/11: thread sweep (STREAM, 16-page aux)",
    )
    x = np.array([r["threads"] for r in rows], dtype=float)
    chart = line_plot(
        {
            "accuracy%": (x, np.array([r["accuracy"] * 100 for r in rows])),
            "overhead%x100": (x, np.array([r["overhead"] * 1e4 for r in rows])),
        },
        title="Fig.10: accuracy / overhead vs threads",
    )
    chart2 = line_plot(
        {
            "collisions": (x, np.array([r["collisions"] for r in rows], dtype=float)),
            "throttles": (
                x,
                np.array([r["throttle_events"] for r in rows], dtype=float),
            ),
        },
        title="Fig.11: collisions and throttling vs threads",
    )
    return "\n\n".join([tbl, chart, chart2])


def render_colo(rows: list[dict]) -> str:
    """Colo: per-runner interference table + slowdown-vs-corunners chart."""
    tbl_rows = []
    for row in rows:
        for r in row["runners"]:
            tbl_rows.append(
                [
                    row["scenario"],
                    r["workload"],
                    f"{r['demand_gibs']:.1f}",
                    f"{r['granted_gibs']:.1f}",
                    f"{r['slowdown']:.2f}x",
                    f"{r['accuracy'] * 100:.1f}%",
                    f"{r['collisions']}",
                    f"{r['samples']}",
                ]
            )
    usable = rows[0]["usable_gibs"] if rows else 0.0
    tbl = table(
        [
            "scenario", "runner", "demand GiB/s", "granted GiB/s",
            "slowdown", "accuracy", "collisions", "samples",
        ],
        tbl_rows,
        title=(
            "Colo: co-located processes on the contended channel "
            f"(usable {usable:.1f} GiB/s)"
        ),
    )
    homogeneous = [r for r in rows if set(r["scenario"].split("+")) == {"stream"}]
    if len(homogeneous) < 2:
        return tbl
    x = np.array([r["n_corunners"] for r in homogeneous], dtype=float)
    chart = line_plot(
        {
            "stream slowdown": (
                x,
                np.array([r["runners"][0]["slowdown"] for r in homogeneous]),
            ),
            "granted sum GiB/s /100": (
                x,
                np.array([r["granted_sum_gibs"] / 100 for r in homogeneous]),
            ),
        },
        title="Colo: STREAMxN slowdown and aggregate grant vs co-runners",
    )
    return tbl + "\n\n" + chart


def render_tiering(rows: list[dict]) -> str:
    """Tiering sweep: per-trial placement table + per-tier breakdowns.

    One summary row per (policy, far-ratio) grid point, then one
    breakdown table per trial showing how the DRAM-class samples,
    latency, and estimated traffic split across the memory tiers.
    """
    summary = table(
        [
            "policy", "far ratio", "slowdown", "accuracy", "overhead",
            "collisions", "samples",
        ],
        [
            [
                r["policy"],
                f"{r['far_ratio']:.2f}",
                f"{r['slowdown']:.2f}x",
                f"{r['accuracy'] * 100:.1f}%",
                f"{r['overhead'] * 100:.2f}%",
                r["collisions"],
                r["samples"],
            ]
            for r in rows
        ],
        title="Tiering: placement policy vs far-memory ratio",
    )
    parts = [summary]
    for r in rows:
        parts.append(
            render_tier_rows(
                r["tiers"],
                title=(
                    f"Tier breakdown: {r['policy']} @ far ratio "
                    f"{r['far_ratio']:.2f}"
                ),
            )
        )
    homogeneous = {}
    for r in rows:
        homogeneous.setdefault(r["policy"], []).append(r)
    series = {
        policy: (
            np.array([p["far_ratio"] for p in pts], dtype=float),
            np.array([p["slowdown"] for p in pts], dtype=float),
        )
        for policy, pts in homogeneous.items()
        if len(pts) >= 2
    }
    if series:
        parts.append(
            line_plot(series, title="Tiering: slowdown vs far-memory ratio")
        )
    return "\n\n".join(parts)


def render_sampling(rows: list[dict]) -> str:
    """Sampling zoo: per-(strategy, period) bias metrics plus a ranking.

    One detail row per grid point, then a ranking table averaging each
    strategy over its periods, sorted best-first by hotness rank error
    (ties break by miss-ratio error, then dead-access fraction, then
    name — fully deterministic per seed).
    """
    detail = table(
        [
            "strategy", "period", "samples", "rank err", "miss err",
            "dead zones", "max width", "dead access", "rate dev", "overhead",
        ],
        [
            [
                r["strategy"],
                r["period"],
                r["samples"],
                f"{r['rank_error']:.4f}",
                f"{r['miss_ratio_error']:.4f}",
                r["dead_zone_count"],
                r["dead_zone_max_width"],
                f"{r['dead_access_fraction'] * 100:.1f}%",
                f"{r['rate_deviation'] * 100:.1f}%",
                f"{r['overhead'] * 100:.2f}%",
            ]
            for r in rows
        ],
        title="Sampling zoo: strategy bias vs exhaustive ground truth",
    )
    by_strategy: dict[str, list[dict]] = {}
    for r in rows:
        by_strategy.setdefault(r["strategy"], []).append(r)
    means = []
    for name, pts in by_strategy.items():
        means.append(
            {
                "strategy": name,
                "rank_error": float(np.mean([p["rank_error"] for p in pts])),
                "miss_ratio_error": float(
                    np.mean([p["miss_ratio_error"] for p in pts])
                ),
                "dead_zone_count": float(
                    np.mean([p["dead_zone_count"] for p in pts])
                ),
                "dead_access_fraction": float(
                    np.mean([p["dead_access_fraction"] for p in pts])
                ),
                "overhead": float(np.mean([p["overhead"] for p in pts])),
            }
        )
    means.sort(
        key=lambda m: (
            m["rank_error"], m["miss_ratio_error"],
            m["dead_access_fraction"], m["strategy"],
        )
    )
    ranking = table(
        [
            "rank", "strategy", "rank err", "miss err", "dead zones",
            "dead access", "overhead",
        ],
        [
            [
                i + 1,
                m["strategy"],
                f"{m['rank_error']:.4f}",
                f"{m['miss_ratio_error']:.4f}",
                f"{m['dead_zone_count']:.1f}",
                f"{m['dead_access_fraction'] * 100:.1f}%",
                f"{m['overhead'] * 100:.2f}%",
            ]
            for i, m in enumerate(means)
        ],
        title="Sampling zoo: strategies ranked by hotness rank error",
    )
    return detail + "\n\n" + ranking


def render_period_sweep(results: dict[str, list[SweepPoint]]) -> str:
    """Generic period-sweep rendering for custom-named scenarios."""
    return "\n\n".join(
        render_sweep_table(pts, f"period sweep ({name})")
        for name, pts in results.items()
    )


def render_profile(rows: list[dict]) -> str:
    """Profile runs: one row per workload, trial means with stds."""
    return table(
        ["workload", "trials", "accuracy", "overhead", "samples",
         "collisions", "wakeups"],
        [
            [
                r["workload"],
                r["trials"],
                f"{r['metrics']['accuracy'] * 100:.1f}%"
                + (f" ±{r['stds']['accuracy'] * 100:.1f}" if r["trials"] > 1 else ""),
                f"{r['metrics']['overhead'] * 100:.2f}%",
                f"{r['metrics']['samples']:.0f}",
                f"{r['metrics']['collisions']:.1f}",
                f"{r['metrics']['wakeups']:.1f}",
            ]
            for r in rows
        ],
        title="Profile: per-workload sampling quality",
    )


#: scenarios named after a paper exhibit keep that exhibit's layout —
#: but only when the kind matches (a custom scenario may legitimately
#: reuse an exhibit name with a different kind)
NAMED_RENDERERS = {
    "fig7": ("period_sweep", render_fig7),
    "fig8": ("period_sweep", render_fig8),
    "fig9": ("aux_sweep", render_fig9),
    "fig10_fig11": ("thread_sweep", render_fig10_fig11),
    "colo_interference": ("colocation", render_colo),
    "sampling_zoo": ("sampling_accuracy", render_sampling),
}

#: fallback renderer per scenario kind
KIND_RENDERERS = {
    "profile": render_profile,
    "period_sweep": render_period_sweep,
    "aux_sweep": render_fig9,
    "thread_sweep": render_fig10_fig11,
    "colocation": render_colo,
    "tiering": render_tiering,
    "sampling_accuracy": render_sampling,
}


def render_results(spec, results) -> str:
    """Render a scenario's results: exhibit layout by name, else by kind."""
    named = NAMED_RENDERERS.get(spec.name)
    if named is not None and named[0] == spec.kind:
        return named[1](results)
    return KIND_RENDERERS[spec.kind](results)
