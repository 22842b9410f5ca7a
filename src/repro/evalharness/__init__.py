"""Evaluation harness: Tables I-II, Figs. 2-6 and the Fig. 2-3 renderers.

The sweep and co-location exhibits (Figs. 7-11, colo) are
:mod:`repro.scenarios` presets, rendered by :mod:`repro.scenarios.report`.
"""

from repro.evalharness.experiments import (
    fig2_capacity,
    fig3_bandwidth,
    fig4_stream_regions,
    fig5_cfd_single_thread,
    fig6_cfd_32_threads,
    table1_env_defaults,
    table2_machine_spec,
)
from repro.evalharness.report import render_bandwidth, render_capacity

__all__ = [
    "fig2_capacity",
    "fig3_bandwidth",
    "fig4_stream_regions",
    "fig5_cfd_single_thread",
    "fig6_cfd_32_threads",
    "render_bandwidth",
    "render_capacity",
    "table1_env_defaults",
    "table2_machine_spec",
]
