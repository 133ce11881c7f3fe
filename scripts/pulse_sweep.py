"""Optimal working point as a function of the pulse budget.

Runs the full (mu, q) optimization at half-decade steps of the pulse
count N.  Small budgets cannot clear the finite-size penalty at all;
past the threshold the optimizer trades a larger sampling bias q for
statistical confidence, and as N grows both q and the penalty shrink
while the rate climbs towards its asymptotic value.

Usage:
    python scripts/pulse_sweep.py [--p 0.1] [--log10-min 4] [--log10-max 10]
                                  [--out results/pulse_sweep.csv]
"""

from __future__ import annotations

import argparse
from pathlib import Path

import numpy as np

from siqrng import EpsilonBudget, optimize
from siqrng.acquisition import POLICIES


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--p", type=float, default=0.1)
    parser.add_argument("--log10-min", type=float, default=4.0)
    parser.add_argument("--log10-max", type=float, default=10.0)
    parser.add_argument("--policy", choices=POLICIES, default="discard")
    parser.add_argument("--out", default="results/pulse_sweep.csv")
    args = parser.parse_args()

    budget = EpsilonBudget.uniform()
    exponents = np.arange(args.log10_min, args.log10_max + 0.25, 0.5)

    rows = ["log10_n,n_pulses,mu_opt,q_opt,rate_opt,status"]
    for exponent in exponents:
        n_pulses = 10.0 ** exponent
        result = optimize(n_pulses=n_pulses, p_mix=args.p, budget=budget, policy=args.policy)
        rows.append(
            f"{exponent:.9g},{n_pulses:.9g},{result.mu_opt:.9g},"
            f"{result.q_opt:.9g},{result.rate_opt:.9g},{result.status}"
        )
        print(
            f"log10 N = {exponent:4.1f}: rate {result.rate_opt:.6f} "
            f"(mu = {result.mu_opt:g}, q = {result.q_opt:g}, {result.status})"
        )

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text("\n".join(rows) + "\n")
    print(f"wrote {len(rows) - 1} rows to {out}")


if __name__ == "__main__":
    main()
