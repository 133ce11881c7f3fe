"""The benchmark's own statement of the detector model and of the extractor sizing.

These formulas define what the generated inputs look like and what the
output checks expect.  They are written here rather than imported from
siqrng so that a defect in the program cannot also move the reference.
"""

from __future__ import annotations

import math

BASES = ("x", "y", "z")


def click_probabilities(q: float, mu: float, p_mix: float) -> dict[str, tuple[float, tuple[float, float, float, float]]]:
    """Per pulse: basis probability and outcome probabilities (n0, n1, nd, none) within it.

    Phase-randomized Poisson(mu) pulses on two threshold detectors; a pure
    |+> pulse sends every photon to detector 0 in the X arm, a mixed pulse
    (weight p_mix) and every pulse in the Y and Z arms route each photon 50/50.
    """
    e_full = math.exp(-mu)
    e_half = math.exp(-mu / 2.0)
    singles = e_half - e_full
    doubles = 1.0 + e_full - 2.0 * e_half
    x = (1.0 - p_mix - e_full + p_mix * e_half, p_mix * singles, p_mix * doubles, e_full)
    yz = (singles, singles, doubles, e_full)
    return {"x": (q, x), "y": (q, yz), "z": (1.0 - 2.0 * q, yz)}


def output_length(net_bits: float, eps2: float) -> int:
    """Toeplitz output length max(0, floor(net_bits) - ceil(log2(1/eps2)))."""
    return max(0, math.floor(net_bits) - math.ceil(-math.log2(eps2)))


def expected_counts(n_pulses: int, q: float, mu: float, p_mix: float):
    """Per-basis pulses and (n0, n1, nd) clicks at their rounded expectation; pulses sum to n_pulses."""
    probs = click_probabilities(q, mu, p_mix)
    pulses = {b: round(n_pulses * probs[b][0]) for b in BASES}
    pulses["z"] = n_pulses - pulses["x"] - pulses["y"]
    counts = {b: tuple(round(pulses[b] * p) for p in probs[b][1][:3]) for b in BASES}
    return pulses, counts
