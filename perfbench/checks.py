"""Output checks for the benchmark workloads.

Every check holds for any correct implementation of the program: reports are
read as 'key: value' lines and compared by value, never byte for byte, and the
references are recomputed here from the generated inputs and the model's
closed form.  A failed check raises CheckError and counts into the run's
`failed` ops.
"""

from __future__ import annotations

import math

import numpy as np

from model import BASES, click_probabilities, output_length

SIGMAS = 6.0
# A value printed to 9 significant digits is within 5e-9 of itself, relatively,
# so a ratio of two printed values is within about 1e-8; an error in the 6th
# digit is at least 1e-6.
PRINTED_RTOL = 1.5e-8
# Largest tolerated distance of an FFT convolution value from an integer.
FFT_MARGIN = 0.25


class CheckError(Exception):
    """An op's output failed its check."""


def parse_report(text: str) -> dict[str, str]:
    report = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            report[key] = value
    return report


def field(report: dict[str, str], key: str) -> float:
    if key not in report:
        raise CheckError(f"report has no {key!r}")
    return float(report[key])


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckError(message)


# --- postprocess ---


def toeplitz_rows(seed: np.ndarray, raw: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Output bits at `rows` by direct parity of seed[i:i+n] reversed against raw."""
    n = raw.size
    raw64 = raw.astype(np.int64)
    return np.array([int(seed[i : i + n][::-1].astype(np.int64) @ raw64) & 1 for i in rows], dtype=np.uint8)


def toeplitz_fft(seed: np.ndarray, raw: np.ndarray, m: int) -> np.ndarray:
    """All m output bits: out[i] = (seed * raw)[i + n - 1] mod 2, by FFT convolution."""
    n = raw.size
    size = 1 << (seed.size + n - 2).bit_length()
    conv = np.fft.irfft(np.fft.rfft(seed, size) * np.fft.rfft(raw, size), size)[n - 1 : n - 1 + m]
    nearest = np.rint(conv)
    margin = float(np.max(np.abs(conv - nearest))) if m else 0.0
    if margin > FFT_MARGIN:
        raise RuntimeError(f"FFT reference lost exactness: distance {margin} to the nearest integer")
    return nearest.astype(np.int64).astype(np.uint8) & 1


def check_extraction(
    seed: np.ndarray, raw: np.ndarray, out: np.ndarray, net_bits: float, m: int, eps2: float, rows: np.ndarray
) -> None:
    """m matches the certificate; sampled rows by direct parity; every row by FFT."""
    expected_m = output_length(net_bits, eps2)
    _expect(m == expected_m, f"m = {m}, but output_length({net_bits}, {eps2}) = {expected_m}")
    _expect(out.size == m, f"output holds {out.size} bits, report says m = {m}")
    _expect(seed.size == raw.size + m - 1, f"seed of {seed.size} bits does not fit n = {raw.size}, m = {m}")
    rows = rows[rows < m]
    bad = np.flatnonzero(out[rows] != toeplitz_rows(seed, raw, rows))
    _expect(bad.size == 0, f"output rows {rows[bad][:4].tolist()} differ from their direct parity")
    bad = np.flatnonzero(out != toeplitz_fft(seed, raw, m))
    _expect(bad.size == 0, f"{bad.size} output bits differ from the Toeplitz product, first at row {bad[:1].tolist()}")


# --- certificates ---


def check_rate_report(report: dict[str, str], n_pulses: float) -> None:
    """Invariants of any certificate: 0 <= net_bits, rate = net_bits / N, coherence in [0, 1]."""
    net = field(report, "net_bits")
    rate = field(report, "rate_per_pulse")
    coherence = field(report, "coherence")
    _expect(net >= 0.0, f"net_bits {net} is negative")
    _expect(0.0 <= coherence <= 1.0, f"coherence {coherence} outside [0, 1]")
    expected = net / n_pulses
    _expect(
        abs(rate - expected) <= PRINTED_RTOL * expected,
        f"rate_per_pulse {report['rate_per_pulse']} != net_bits / N = {expected:.9g}",
    )


def _within_sigmas(name: str, value: float, n_pulses: float, prob: float) -> None:
    mean = n_pulses * prob
    sigma = math.sqrt(n_pulses * prob * (1.0 - prob))
    _expect(
        abs(value - mean) <= SIGMAS * sigma,
        f"{name} = {value:.0f} is {abs(value - mean) / sigma if sigma else math.inf:.1f} sigma from {mean:.1f}",
    )


def check_z_clicks(n_z: float, n_pulses: float, q: float, mu: float, p_mix: float) -> None:
    """The certified Z click count lies within 6 sigma of the model."""
    q_z, outcomes = click_probabilities(q, mu, p_mix)["z"]
    _within_sigmas("n_z", n_z, n_pulses, q_z * (1.0 - outcomes[3]))


def check_mc_counts(
    n_pulses: int, q: float, mu: float, p_mix: float, pulses: dict[str, float], counts: dict[str, tuple]
) -> None:
    """Per-basis pulses sum to N, and every pulse and click count is within 6 sigma of the model."""
    _expect(sum(pulses[b] for b in BASES) == n_pulses, f"per-basis pulses {pulses} do not sum to N = {n_pulses}")
    for basis, (q_b, outcomes) in click_probabilities(q, mu, p_mix).items():
        _within_sigmas(f"pulses.{basis}", pulses[basis], n_pulses, q_b)
        for label, value, prob in zip(("n0", "n1", "nd"), counts[basis], outcomes):
            _within_sigmas(f"counts.{basis}.{label}", value, n_pulses, q_b * prob)


# --- design sweep ---


def check_optimum(
    mu_opt: float, q_opt: float, rate_opt: float, recertified: str, reference: dict[str, str] | None = None
) -> None:
    """rate_opt matches the scalar re-certification and, if given, the committed sweep row to 9 digits."""
    _expect(f"{rate_opt:.9g}" == recertified, f"rate_opt {rate_opt:.9g} != scalar certificate {recertified}")
    if reference is not None:
        got = {"mu_opt": f"{mu_opt:.9g}", "q_opt": f"{q_opt:.9g}", "rate_opt": f"{rate_opt:.9g}"}
        diff = {k: (v, reference[k]) for k, v in got.items() if v != reference[k]}
        _expect(not diff, f"optimum differs from the committed sweep: {diff}")
