"""Single-qubit tomography primitives.

Everything downstream reduces to a handful of entropy evaluations on a qubit
state reconstructed from the zero-outcome probabilities (p_x, p_y, p_z) of
the three Pauli measurements.  The relative entropy of coherence in the Z
eigenbasis has the closed form

    C(rho) = h(p_z) - h((1 + p_o) / 2)

where h is the binary entropy and p_o is the Bloch vector length.  The same
quantity is lower-bounded, without Y data, by the uniformly mixing witness

    C(rho) >= log2(d) - H(Xi(rho))

where Xi is the dephasing map of a basis mutually unbiased with Z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# Tolerance on the Bloch-ball constraint: radii within this excess of 1 are
# clamped to 1 (float dust from squared sums), anything beyond is rejected.
PHYSICALITY_TOL = 1e-9

# Tolerance on the normalization of an outcome distribution.
DISTRIBUTION_TOL = 1e-9


class NonphysicalStateError(ValueError):
    """The measured probabilities are inconsistent with any qubit state."""


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy h(p) in bits, with h(0) = h(1) = 0."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"probability outside [0, 1]: {p!r}")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy_arr(p: np.ndarray) -> np.ndarray:
    """Vectorized twin of binary_entropy; no domain checks.

    Finite values outside (0, 1) give 0; NaN gives NaN, so that an undefined
    probability cannot pass for a certain outcome.
    """
    p = np.asarray(p, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p)
    return np.where((p <= 0.0) | (p >= 1.0), 0.0, h)


def shannon_entropy(dist: Sequence[float]) -> float:
    """Shannon entropy in bits of a normalized outcome distribution."""
    probs = [float(v) for v in dist]
    if len(probs) < 2:
        raise ValueError("distribution needs at least two outcomes")
    if min(probs) < 0.0:
        raise ValueError(f"negative probability in distribution: {probs}")
    if abs(sum(probs) - 1.0) > DISTRIBUTION_TOL:
        raise ValueError(f"distribution not normalized: sum = {sum(probs)!r}")
    return -sum(v * math.log2(v) for v in probs if v > 0.0)


@dataclass(frozen=True)
class QubitTomogram:
    """Zero-outcome probabilities of the three Pauli measurements.

    The Bloch vector of the reconstructed state is
    (2 p_x - 1, 2 p_y - 1, 2 p_z - 1).  Construction only checks that each
    probability lies in [0, 1]; consistency with a positive density matrix
    is reported by is_physical and enforced by the entropy operations, so
    that inconsistent data can be inspected before being rejected.
    """

    p_x: float
    p_y: float
    p_z: float

    def __post_init__(self) -> None:
        for name in ("p_x", "p_y", "p_z"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} outside [0, 1]: {value!r}")

    @property
    def bloch(self) -> tuple[float, float, float]:
        return (2.0 * self.p_x - 1.0, 2.0 * self.p_y - 1.0, 2.0 * self.p_z - 1.0)

    @property
    def bloch_norm(self) -> float:
        """Unclamped Bloch vector length.  May exceed 1 for inconsistent data."""
        r2 = (
            4.0 * (self.p_x**2 + self.p_y**2 + self.p_z**2 - self.p_x - self.p_y - self.p_z)
            + 3.0
        )
        return math.sqrt(max(r2, 0.0))

    @property
    def is_physical(self) -> bool:
        return self.bloch_norm <= 1.0 + PHYSICALITY_TOL

    @property
    def purity_radius(self) -> float:
        """Bloch length clamped to the unit ball; raises when clearly outside it."""
        r = self.bloch_norm
        if r > 1.0 + PHYSICALITY_TOL:
            raise NonphysicalStateError(
                f"Bloch vector length {r:.12g} exceeds 1: tomogram {self} does not "
                "describe a qubit state"
            )
        return min(r, 1.0)


def von_neumann_entropy(tomogram: QubitTomogram) -> float:
    """Entropy in bits of the state reconstructed from the tomogram."""
    return binary_entropy((1.0 + tomogram.purity_radius) / 2.0)


def coherence_rel_entropy(tomogram: QubitTomogram) -> float:
    """Relative entropy of coherence in the Z eigenbasis, in bits.

    Equals h(p_z) minus the state entropy.  The difference is provably
    nonnegative for physical tomograms; float dust a few ulps below zero is
    clamped so callers can rely on a rate in [0, 1].
    """
    c = binary_entropy(tomogram.p_z) - von_neumann_entropy(tomogram)
    return max(c, 0.0)


def witness_value(xi_distribution: Sequence[float]) -> float:
    """Uniformly mixing coherence witness W = H(dist) - log2(d).

    Nonpositive for any distribution, and zero exactly when the observed
    distribution in the mutually unbiased basis is uniform (no certifiable
    coherence).
    """
    return shannon_entropy(xi_distribution) - math.log2(len(xi_distribution))


def witness_coherence_bound(xi_distribution: Sequence[float], d: int | None = None) -> float:
    """Certified coherence lower bound -W = log2(d) - H(dist) from witness data."""
    if d is not None and d != len(xi_distribution):
        raise ValueError(
            f"dimension {d} does not match distribution length {len(xi_distribution)}"
        )
    return -witness_value(xi_distribution)
