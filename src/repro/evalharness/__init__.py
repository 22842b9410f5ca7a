"""Evaluation harness: Tables I-II, Figs. 2-6 and the exhibit renderers."""

from repro.evalharness.experiments import (
    fig2_capacity,
    fig3_bandwidth,
    fig4_stream_regions,
    fig5_cfd_single_thread,
    fig6_cfd_32_threads,
    table1_env_defaults,
    table2_machine_spec,
)
from repro.evalharness.report import (
    render_bandwidth,
    render_capacity,
    render_colo,
    render_fig7,
    render_fig8,
    render_fig9,
    render_fig10_fig11,
    render_sweep_table,
)
from repro.evalharness.sweep import SweepResult, crossover, sweep

__all__ = [
    "SweepResult",
    "crossover",
    "fig2_capacity",
    "fig3_bandwidth",
    "fig4_stream_regions",
    "fig5_cfd_single_thread",
    "fig6_cfd_32_threads",
    "render_bandwidth",
    "render_capacity",
    "render_colo",
    "render_fig7",
    "render_fig8",
    "render_fig9",
    "render_fig10_fig11",
    "render_sweep_table",
    "sweep",
    "table1_env_defaults",
    "table2_machine_spec",
]
