"""Report rendering for the experiment harness.

Turns experiment outputs into the same rows/series the paper reports,
as aligned text tables and ASCII charts.

The sweep/colo renderers live in :mod:`repro.scenarios.report`, beside
the scenario kinds they render; this module keeps the temporal exhibits
(figs. 2-3) that have no scenario kind.
"""

from __future__ import annotations

from repro.analysis.plotting import line_plot
from repro.machine.spec import GiB


def render_capacity(results: dict[str, dict]) -> str:
    """Render the Fig. 2 capacity view: one RSS-over-time chart per run."""
    parts = []
    for name, r in results.items():
        t, v = r["series"]
        parts.append(
            line_plot(
                {name: (t, v / GiB)},
                title=(
                    f"Fig.2 ({name}): peak {r['peak_gib']:.1f} GiB "
                    f"({r['peak_utilisation'] * 100:.1f}% of 256 GiB)"
                ),
            )
        )
    return "\n\n".join(parts)


def render_bandwidth(results: dict[str, dict]) -> str:
    """Render the Fig. 3 bandwidth view: bus-event rate charts per run."""
    parts = []
    for name, r in results.items():
        t, v = r["series"]
        title = f"Fig.3 ({name}): peak {r['peak_gibs']:.1f} GiB/s"
        if "period_s" in r:
            title += f", period ~{r['period_s']:.1f}s"
        parts.append(line_plot({name: (t, v / GiB)}, title=title))
    return "\n\n".join(parts)
