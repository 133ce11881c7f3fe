"""Seeded input generator: the same seed writes the same files and op plan.

Each workload's plan is one cycle of op specs, which the worker repeats.  The
inputs keep to behaviour that the open ROADMAP items preserve: no --workers
flag, no non-finite, out-of-domain or below-floor counts, --N always the true
pulse count, and no optimize call at a budget without a positive rate.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from pathlib import Path

import numpy as np

from checks import parse_report
from model import BASES, click_probabilities, expected_counts, output_length

EPS2 = 1e-10

# postprocess: blocks of N pulses at q = 0.05, mu0 = 1.2, p = 0 give n of about
# 4.5e4 / 6.7e4 / 8.9e4 surviving Z bits and m of about 1.0e4 / 2.3e4 / 3.8e4.
# Their counts sit at the model's expectation, so n and m, hence the work of an
# op, are the same for every seed; the seed draws the raw and seed bits.
BLOCK_SOURCE = {"q": 0.05, "mu0": 1.2, "p": 0.0}
BLOCK_PULSES = (100_000, 150_000, 200_000)
SPOT_ROWS = 64

# mc_certify: N of 2.5e5 and 1e6 (one sampler block) keeps a run at about
# thirty cycles, so each op has many samples for its median reference ratio.
# With 4e6-pulse ops a run holds six cycles, and ten seeds spread by 0.29.
MC_SOURCE = {"q": 0.05, "p": 0.1}
MC_PULSES = (250_000, 1_000_000)
MC_MU0 = (0.5, 1.4, 3.0)
# Ops at this size are also re-drawn through `simulate --mc` to check every count.
MC_CROSS_CHECK_PULSES = 250_000

# Half-decade budgets 1e5 ... 1e10, as scripts/pulse_sweep.py makes them.
SWEEP_EXPONENTS = tuple(float(e) for e in np.arange(5.0, 10.25, 0.5))
SWEEP_P = (0.0, 0.1, 0.3)
POLICIES = ("discard", "assign")
# p = 0.3 certifies nothing at N <= 10^5.5 on the default grids.
SWEEP_MIN_EXPONENT = {0.3: 6.0}
SWEEP_REFERENCE = Path("results") / "pulse_sweep.csv"

STREAM_SOURCE = {"q": 0.05, "mu0": 1.2}


def draw_counts(rng: np.random.Generator, n_pulses: int, q: float, mu: float, p_mix: float):
    """One run of n_pulses through the model: (n0, n1, nd) clicks per basis."""
    probs = click_probabilities(q, mu, p_mix)
    split = rng.multinomial(n_pulses, [probs[b][0] for b in BASES])
    return {b: tuple(int(v) for v in rng.multinomial(k, probs[b][1])[:3]) for b, k in zip(BASES, split)}


def write_counts(path: Path, counts) -> None:
    path.write_text("".join(f"{b.upper()},{n0},{n1},{nd}\n" for b, (n0, n1, nd) in counts.items()))


def write_bit_file(path: Path, bits: np.ndarray) -> None:
    path.write_bytes((bits.astype(np.uint8) + ord("0")).tobytes() + b"\n")


def _certify(counts_path: Path, n_pulses: int) -> dict[str, str]:
    from siqrng import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(["rate", "--counts", str(counts_path), "--N", str(n_pulses)])
    if status != 0:
        raise RuntimeError(f"generation certificate for {counts_path} exited {status}")
    return parse_report(out.getvalue())


def _postprocess(rng, work: Path) -> dict:
    ops = []
    for n_pulses in BLOCK_PULSES:
        stem = work / f"block-{n_pulses}"
        _, counts = expected_counts(n_pulses, BLOCK_SOURCE["q"], BLOCK_SOURCE["mu0"], BLOCK_SOURCE["p"])
        n0, n1, _ = counts["z"]
        raw = np.zeros(n0 + n1, dtype=np.uint8)
        raw[:n1] = 1
        rng.shuffle(raw)
        counts_path = stem.with_suffix(".counts")
        write_counts(counts_path, counts)
        write_bit_file(stem.with_suffix(".raw"), raw)
        # untimed certificate: fixes m, hence the seed length n + m - 1
        m = output_length(float(_certify(counts_path, n_pulses)["net_bits"]), EPS2)
        if not 0 < m <= raw.size:
            raise RuntimeError(f"block {stem.name} certifies m = {m} for n = {raw.size}")
        write_bit_file(stem.with_suffix(".seed"), rng.integers(0, 2, raw.size + m - 1, dtype=np.uint8))
        ops.append(
            {
                "counts": str(counts_path),
                "N": n_pulses,
                "raw": str(stem.with_suffix(".raw")),
                "seed": str(stem.with_suffix(".seed")),
                "out": str(stem.with_suffix(".out")),
                "n": int(raw.size),
                "rows": sorted(int(i) for i in rng.choice(m, size=min(SPOT_ROWS, m), replace=False)),
            }
        )
    return {"ops": ops, "eps2": EPS2}


def _mc_certify(rng, work: Path) -> dict:
    ops = [
        {"N": n, "mu0": mu0, **MC_SOURCE, "cross_check": n == MC_CROSS_CHECK_PULSES}
        for n in MC_PULSES
        for mu0 in MC_MU0
    ]
    return {"ops": ops, "seed_base": int(rng.integers(1 << 30))}


def _design_sweep(rng, work: Path) -> dict:
    with open(SWEEP_REFERENCE, newline="") as fh:
        reference = {row["log10_n"]: row for row in csv.DictReader(fh) if row["status"] == "ok"}
    ops = []
    for e in SWEEP_EXPONENTS:
        for p in SWEEP_P:
            if e < SWEEP_MIN_EXPONENT.get(p, -math.inf):
                continue
            for policy in POLICIES:
                row = reference.get(f"{e:.9g}") if (p, policy) == (0.1, "discard") else None
                ops.append({"N": 10.0**e, "p": p, "policy": policy, "reference": row})
    rng.shuffle(ops)
    return {"ops": ops}


def _certify_stream(rng, work: Path) -> dict:
    ops = []
    for i, e in enumerate(SWEEP_EXPONENTS):
        n_pulses = round(10.0**e)
        for policy in POLICIES:
            counts = draw_counts(rng, n_pulses, STREAM_SOURCE["q"], STREAM_SOURCE["mu0"], 0.1 * (i % 2))
            flip = (i + len(ops)) % 3 == 0
            if flip:
                n0, n1, nd = counts["x"]
                counts["x"] = (n1, n0, nd)
            path = work / f"stream{len(ops)}.counts"
            write_counts(path, counts)
            ops.append({"counts": str(path), "N": n_pulses, "policy": policy, "flipped_x": flip})
    rng.shuffle(ops)
    return {"ops": ops}


GENERATORS = {
    "postprocess": _postprocess,
    "mc_certify": _mc_certify,
    "design_sweep": _design_sweep,
    "certify_stream": _certify_stream,
}


def generate(workload: str, seed: int, work: Path) -> dict:
    """Write the workload's input files under `work` and return its plan."""
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.Generator(np.random.PCG64(seed))
    return {"workload": workload, **GENERATORS[workload](rng, work)}
