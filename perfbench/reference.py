"""Reference kernels: fixed work of each workload's kind, timed between its ops.

The 2-vCPU machine shares its host with other tenants, and its speed drifts
by tens of percent for seconds to minutes at a time, so one run can sit in a
slow spell from start to end.  Each workload therefore runs, after every op,
a reference kernel with the same resource profile as its ops but none of
siqrng's code: a strided float64 dot for the Toeplitz extractor, a
Philox/Poisson/binomial draw for the Monte Carlo sampler, elementwise numpy
math on grid-sized arrays for the optimizer, and an argparse parser for the
scalar CLI path.  The kernel's time measures the host's speed at that moment;
the worker divides each op's time by it (worker.py).  Nothing here changes
with the program, so a faster or slower program moves the ratio, while a
slow spell moves both sides of it.

Each kernel lasts a fraction of its workload's op and does the same work on
every call.
"""

from __future__ import annotations

import argparse
import math

import numpy as np


def _extract_like():
    """A hash of 1 536 rows of a 44 571-bit input: seed windows times a float vector."""
    rng = np.random.Generator(np.random.PCG64(1))
    n, rows = 44_571, 1_536
    seed = rng.integers(0, 2, n + rows - 1).astype(np.float64)
    vec = rng.integers(0, 2, n).astype(np.float64)
    windows = np.lib.stride_tricks.sliding_window_view(seed, n)

    def kernel() -> int:
        out = 0
        for start in range(0, rows, 64):
            out += int((windows[start : start + 64] @ vec).astype(np.int64).sum() & 1)
        return out

    return kernel


def _sample_like():
    """125 000 pulses: a uniform, a Poisson and two binomial draws, then masked counts."""
    size = 125_000

    def kernel() -> int:
        rng = np.random.Generator(np.random.Philox(7))
        u = rng.random(size)
        basis = np.where(u < 0.05, 0, np.where(u < 0.1, 1, 2)).astype(np.int8)
        photons = rng.poisson(1.4, size)
        routed = rng.binomial(rng.binomial(photons, 0.9), 0.5)
        click = (routed > 0) & (rng.random(size) < 0.9)
        return sum(int((click & (basis == b)).sum()) for b in range(3))

    return kernel


def _grid_like():
    """Elementwise entropy and interval math over a 49 x 229 grid, six passes."""
    mu = np.linspace(0.05, 3.0, 49)[:, None]
    q = np.linspace(0.001, 0.45, 229)[None, :]

    def kernel() -> float:
        best = 0.0
        for shift in np.linspace(0.0, 0.5, 6):
            p = np.clip(np.exp(-(mu + shift)) * q + 0.5 * (1.0 - q), 1e-12, 1.0 - 1e-12)
            h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
            theta = np.sqrt(np.log(1e10) / (2.0 * (1e6 * q + 1.0)))
            rate = np.where(h - theta > 0.0, (h - theta) * (1.0 - 2.0 * q), 0.0)
            best = max(best, float(rate.max()))
        return best

    return kernel


def _cli_like():
    """Build a three-command argparse parser, parse one command line, and do its scalar math."""
    argv = ["rate", "--counts", "c.txt", "--N", "1e6", "--policy", "assign"]

    def kernel() -> float:
        parser = argparse.ArgumentParser(prog="ref", description="reference parser")
        sub = parser.add_subparsers(dest="command", required=True)
        for command in ("rate", "simulate", "optimize"):
            p = sub.add_parser(command, help=f"{command} help")
            p.add_argument("--counts", help="counts file")
            p.add_argument("--N", type=float, default=1e6, help="pulses")
            for flag in ("--q", "--mu0", "--p", "--eta", "--eps-pe", "--eps-sm", "--eps-pa", "--eps-cor"):
                p.add_argument(flag, type=float, default=0.1, help=f"{flag} value")
            p.add_argument("--policy", choices=("discard", "assign"), default="discard")
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--out", help="output file")
        args = parser.parse_args(argv)
        x = 0.0
        for k in range(200):
            p = 0.5 + 0.4 * math.sin(k + args.N * 1e-7)
            x += -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)
        return x

    return kernel


# About each kernel's median seconds between ops on the 2-vCPU Xeon host; they
# turn "op time in kernel runs" back into seconds.  Being fixed, they scale
# every run alike and never move a comparison.
NOMINAL_S = {
    "postprocess": 0.060,
    "mc_certify": 0.019,
    "design_sweep": 0.0014,
    "certify_stream": 0.0012,
}

# Per workload, a factory that builds the kernel's inputs once and returns it.
KERNELS = {
    "postprocess": _extract_like,
    "mc_certify": _sample_like,
    "design_sweep": _grid_like,
    "certify_stream": _cli_like,
}
