"""Certified rate versus detected intensity for several source impurities.

Sweeps the detected mean photon number mu over a fixed grid and, at each
point, picks the basis bias q that maximises the finite-size rate for a
large pulse budget.  Repeating the sweep for a few values of the mixed
component weight p shows how source noise pushes the optimum towards
weaker pulses and lowers the achievable rate.

Usage:
    python scripts/intensity_sweep.py [--n-pulses 1e10] [--p 0 0.1 0.3]
                                      [--out results/intensity_sweep.csv]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from siqrng import EpsilonBudget, rate_surface
from siqrng.acquisition import POLICIES
from siqrng.optimizer import DEFAULT_MU_GRID, DEFAULT_Q_GRID


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-pulses", type=float, default=1e10)
    parser.add_argument("--p", type=float, nargs="+", default=[0.0, 0.1, 0.3])
    parser.add_argument("--policy", choices=POLICIES, default="discard")
    parser.add_argument("--out", default="results/intensity_sweep.csv")
    args = parser.parse_args()

    budget = EpsilonBudget.uniform()
    rows = ["p,mu,q_best,rate"]
    for p_mix in args.p:
        surface = rate_surface(
            n_pulses=args.n_pulses,
            p_mix=p_mix,
            mus=DEFAULT_MU_GRID,
            qs=DEFAULT_Q_GRID,
            budget=budget,
            policy=args.policy,
        )
        best_q = np.argmax(surface, axis=1)
        for i, mu in enumerate(DEFAULT_MU_GRID):
            j = best_q[i]
            rows.append(f"{p_mix:.9g},{mu:.9g},{DEFAULT_Q_GRID[j]:.9g},{surface[i, j]:.9g}")
        peak = np.unravel_index(np.argmax(surface), surface.shape)
        print(
            f"p = {p_mix:g}: peak rate {surface[peak]:.6f} "
            f"at mu = {DEFAULT_MU_GRID[peak[0]]:g}, q = {DEFAULT_Q_GRID[peak[1]]:g}"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {out}")


if __name__ == "__main__":
    main()
