#!/usr/bin/env python3
"""SPE sensitivity study: the paper's §VII experiment in miniature.

Sweeps the sampling period over STREAM / CFD / BFS and prints accuracy,
overhead, and collision curves — a scaled-down rendition of Figs. 7-8.
Use this script as the template for studying your own workload's
tolerance to SPE sampling parameters.

Run:  python examples/spe_sensitivity_study.py
"""

from repro.analysis.plotting import line_plot, table
from repro.scenarios import Session, fig8_spec

PERIODS = (1000, 2000, 4000, 8000, 32000)
SCALES = {"stream": 1 / 64, "cfd": 1 / 512, "bfs": 0.25}


def main() -> None:
    results = {}
    for name, scale in SCALES.items():
        print(f"sweeping {name} (scale {scale:g}) ...")
        spec = fig8_spec(
            periods=PERIODS, trials=2, workloads=(name,), scale=scale
        )
        results.update(Session().run(spec).results)

    rows = []
    for name, pts in results.items():
        for p in pts:
            rows.append(
                [
                    name,
                    p.period,
                    f"{p.accuracy_mean:.1%}",
                    f"{p.overhead_mean:.2%}",
                    f"{p.collisions_mean:.0f}",
                ]
            )
    print()
    print(
        table(
            ["workload", "period", "accuracy", "overhead", "collisions"],
            rows,
            title="SPE sensitivity (cf. paper Fig. 8)",
        )
    )

    import numpy as np

    acc_series = {
        name: (
            np.array([p.period for p in pts], dtype=float),
            np.array([p.accuracy_mean * 100 for p in pts]),
        )
        for name, pts in results.items()
    }
    print()
    print(line_plot(acc_series, title="accuracy % vs period", logx=True))

    # the paper's guidance, recomputed from the sweep:
    stream = {p.period: p for p in results["stream"]}
    knee = next(
        (p for p in PERIODS if stream[p].accuracy_mean > 0.94), PERIODS[-1]
    )
    print(
        f"\nGuidance: avoid periods below ~2000 (drops/collisions); "
        f"accuracy stabilises from ~{knee}; 10000-50000 trades accuracy "
        f"against overhead best (paper Section VII-A)."
    )


if __name__ == "__main__":
    main()
