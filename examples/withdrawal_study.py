#!/usr/bin/env python3
"""Mini Fig. 2: withdrawal convergence vs SDN deployment fraction.

Runs the paper's route-withdrawal sweep on a smaller clique (so it
finishes in ~30s) and renders the boxplots as ASCII art plus a linear
fit.  For the full 16-AS / 10-run reproduction, run
``python -m repro reproduce fig2_withdrawal``.

Run:  python examples/withdrawal_study.py
"""

from repro.analysis import ascii_boxplot_chart
from repro.experiments import withdrawal_sweep


def main():
    n = 10
    print(f"Withdrawal convergence vs SDN fraction ({n}-AS clique, "
          f"MRAI 30s, 5 runs/point)")
    print("=" * 70)

    result = withdrawal_sweep(
        n=n, sdn_counts=[0, 2, 4, 6, 8, 9], runs=5, mrai=30.0,
    )

    rows = [
        (f"{p.sdn_count:2d}/{n} SDN", p.stats) for p in result.points
    ]
    print(ascii_boxplot_chart(rows, title="convergence time boxplots", unit="s"))

    fit = result.fit()
    print(f"\nlinear fit over medians: "
          f"t = {fit.slope:.1f} * fraction + {fit.intercept:.1f}  "
          f"(R^2 = {fit.r_squared:.3f})")
    print(f"total reduction at max deployment: "
          f"{result.reduction_at_full() * 100:.0f}%")
    print("\npaper's claim: convergence falls linearly with the SDN "
          "fraction — check the R^2 above.")


if __name__ == "__main__":
    main()
