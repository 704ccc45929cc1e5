#!/usr/bin/env python3
"""Sweep market sizes and compare envy statistics to their closed forms.

Uses fewer replications than the full acceptance protocol so it finishes
in about half a minute; pass more via run_experiment for tighter bands.
Writes envy_sweep.csv next to this script and, when matplotlib is
importable, envy_sweep.png as well.
"""

import os

from envylab import DEFAULT_SIZE_SWEEP, ExperimentConfig, harmonic, run_experiment

here = os.path.dirname(os.path.abspath(__file__))
csv_path = os.path.join(here, "envy_sweep.csv")

config = ExperimentConfig(sizes=DEFAULT_SIZE_SWEEP, replications=400,
                          master_seed=2024, output_path=csv_path)
records = run_experiment(config)

print(f"{'n':>6} {'metric':<12} {'mean':>10} {'prediction':>11} {'rel err':>8}")
for r in records:
    rel = abs(r.mean - r.prediction) / r.prediction
    print(f"{r.n:>6} {r.metric:<12} {r.mean:>10.3f} {r.prediction:>11.3f} {rel:>7.1%}")
print(f"\nwrote {csv_path}")
print("unenvied tracks H_n; envying nobody tracks n/H_n "
      f"(H_1000 = {harmonic(1000):.3f})")

try:
    import matplotlib
    matplotlib.use("Agg")
    import matplotlib.pyplot as plt
except ImportError:
    print("matplotlib not available; skipping the plot")
else:
    fig, ax = plt.subplots(figsize=(7, 4.5))
    for metric, color in (("unenvied", "tab:blue"), ("envy_nobody", "tab:red")):
        rows = [r for r in records if r.metric == metric]
        ax.plot([r.n for r in rows], [r.mean for r in rows], "o", color=color,
                label=f"{metric} (simulated)")
        ax.plot([r.n for r in rows], [r.prediction for r in rows], "-", color=color,
                alpha=0.6, label=f"{metric} (predicted)")
    ax.set_xscale("log")
    ax.set_yscale("log")
    ax.set_xlabel("market size n")
    ax.set_ylabel("expected count")
    ax.legend()
    fig.tight_layout()
    png_path = os.path.join(here, "envy_sweep.png")
    fig.savefig(png_path, dpi=120)
    print(f"wrote {png_path}")
