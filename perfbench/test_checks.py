"""Negative controls: each output check passes a correct result and rejects a corrupted one.

Run with: python3 -m pytest perfbench
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import checks
from checks import CheckError
from model import BASES, click_probabilities, expected_counts

EPS2 = 1e-10


@pytest.fixture
def block():
    """A small extraction: seed, raw bits, correct output, and the certificate that sized it."""
    rng = np.random.default_rng(5)
    n, m = 300, 120
    raw = rng.integers(0, 2, n, dtype=np.uint8)
    seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
    out = checks.toeplitz_rows(seed, raw, np.arange(m))
    net_bits = m + math.ceil(-math.log2(EPS2)) + 0.5
    rows = np.sort(rng.choice(m, size=16, replace=False))
    return seed, raw, out, net_bits, m, rows


def test_toeplitz_fft_matches_direct_parity(block):
    seed, raw, out, _, m, _ = block
    assert np.array_equal(checks.toeplitz_fft(seed, raw, m), out)


def test_extraction_check_accepts_correct_output(block):
    checks.check_extraction(*block[:5], EPS2, block[5])


@pytest.mark.parametrize("where", ["spot-checked row", "unchecked row"])
def test_extraction_check_rejects_one_flipped_bit(block, where):
    seed, raw, out, net_bits, m, rows = block
    row = rows[3] if where == "spot-checked row" else np.setdiff1d(np.arange(m), rows)[7]
    corrupted = out.copy()
    corrupted[row] ^= 1
    with pytest.raises(CheckError):
        checks.check_extraction(seed, raw, corrupted, net_bits, m, EPS2, rows)


def test_extraction_check_rejects_m_not_from_the_certificate(block):
    seed, raw, out, net_bits, m, rows = block
    with pytest.raises(CheckError):
        checks.check_extraction(seed, raw, out, net_bits + 1.0, m, EPS2, rows)


MC = {"n_pulses": 1_000_000, "q": 0.05, "mu": 1.4, "p_mix": 0.1}


def sigma(prob: float) -> float:
    return math.sqrt(MC["n_pulses"] * prob * (1.0 - prob))


def test_mc_check_accepts_expected_counts():
    checks.check_mc_counts(*MC.values(), *expected_counts(*MC.values()))


@pytest.mark.parametrize("basis", BASES)
@pytest.mark.parametrize("outcome", range(3))
def test_mc_check_rejects_a_count_shifted_by_10_sigma(basis, outcome):
    pulses, counts = expected_counts(*MC.values())
    q_b, probs = click_probabilities(MC["q"], MC["mu"], MC["p_mix"])[basis]
    shifted = list(counts[basis])
    shifted[outcome] += max(10.0 * sigma(q_b * probs[outcome]), 1.0)
    counts[basis] = tuple(shifted)
    with pytest.raises(CheckError):
        checks.check_mc_counts(*MC.values(), pulses, counts)


def test_mc_check_rejects_pulses_not_summing_to_n():
    pulses, counts = expected_counts(*MC.values())
    pulses["x"] += 1
    with pytest.raises(CheckError):
        checks.check_mc_counts(*MC.values(), pulses, counts)


def test_z_click_check_rejects_10_sigma_shift():
    q_z, probs = click_probabilities(MC["q"], MC["mu"], MC["p_mix"])["z"]
    p_click = q_z * (1.0 - probs[3])
    mean = MC["n_pulses"] * p_click
    checks.check_z_clicks(round(mean), MC["n_pulses"], MC["q"], MC["mu"], MC["p_mix"])
    with pytest.raises(CheckError):
        checks.check_z_clicks(mean + 10.0 * sigma(p_click), MC["n_pulses"], MC["q"], MC["mu"], MC["p_mix"])


def report(net_bits: float, n_pulses: float, coherence: float = 0.5, rate: float | None = None) -> dict[str, str]:
    rate = net_bits / n_pulses if rate is None else rate
    return {"net_bits": f"{net_bits:.9g}", "rate_per_pulse": f"{rate:.9g}", "coherence": f"{coherence:.9g}"}


@pytest.mark.parametrize("net_bits", [0.0, 12345.6789, 2.17000001e9, 9.99999999e6])
def test_rate_report_check_accepts_printed_certificates(net_bits):
    for n_pulses in (1e5, 3.16227766e7, 1e10):
        checks.check_rate_report(report(net_bits, n_pulses), n_pulses)


@pytest.mark.parametrize(
    "bad",
    [
        {"rate": 0.123457789 * (1 + 1e-6)},  # off in the 6th digit
        {"coherence": 1.0000001},
        {"coherence": -1e-9},
        {"net_bits": -1.0},
    ],
)
def test_rate_report_check_rejects_corrupted_certificate(bad):
    n_pulses = 1e6
    fields = {"net_bits": 123457.789, "coherence": 0.5, "rate": None, **bad}
    if "net_bits" in bad:
        fields["rate"] = bad["net_bits"] / n_pulses
    with pytest.raises(CheckError):
        checks.check_rate_report(report(fields["net_bits"], n_pulses, fields["coherence"], fields["rate"]), n_pulses)


OPTIMUM = (0.92245, 0.009845, 0.245693781)
SWEEP_ROW = {"mu_opt": "0.92245", "q_opt": "0.009845", "rate_opt": "0.245693781"}


def test_optimum_check_accepts_matching_optimum():
    checks.check_optimum(*OPTIMUM, "0.245693781", SWEEP_ROW)


def test_optimum_check_rejects_rate_off_in_6th_digit():
    mu, q, rate = OPTIMUM
    off = rate + 1e-6
    with pytest.raises(CheckError):
        checks.check_optimum(mu, q, off, "0.245693781")
    with pytest.raises(CheckError):
        checks.check_optimum(mu, q, off, f"{off:.9g}", SWEEP_ROW)
