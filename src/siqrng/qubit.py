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

The Bloch length and the coherence are written once, on a backend namespace:
`_MATH_OPS` for floats, as the tomogram uses them, or `_NUMPY_OPS` for
arrays, as `acquisition.certify` also runs them on grids of counts.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

import numpy as np

# Tolerance on the Bloch-ball constraint: radii within this excess of 1 are
# clamped to 1 (float dust from squared sums), anything beyond is rejected.
PHYSICALITY_TOL = 1e-9

# Tolerance on the normalization of an outcome distribution.
DISTRIBUTION_TOL = 1e-9


class NonphysicalStateError(ValueError):
    """The measured probabilities are inconsistent with any qubit state."""

    def __init__(self, tomogram: "QubitTomogram", radius: float):
        super().__init__(
            f"Bloch vector length {radius:.12g} exceeds 1: tomogram {tomogram} does not "
            "describe a qubit state"
        )


def _check_fraction(value: float, name: str) -> None:
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} outside [0, 1]: {value!r}")


def binary_entropy(p: float) -> float:
    """Binary Shannon entropy h(p) in bits, with h(0) = h(1) = 0."""
    _check_fraction(p, "probability")
    if p == 0.0 or p == 1.0:
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def binary_entropy_arr(p: np.ndarray) -> np.ndarray:
    """Vectorized twin of binary_entropy; no domain checks.

    Finite values outside (0, 1) give 0; NaN gives NaN, so that an undefined
    probability cannot pass for a certain outcome.
    """
    p = np.asarray(p, dtype=float)
    q = 1.0 - p
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -p * np.log2(p) - q * np.log2(q)
    return np.where(p * q <= 0.0, 0.0, h)  # p * q is NaN, not <= 0, when p is NaN


def _maximum(a, b):
    return a if a >= b or a != a else b  # NaN wins, as in np.maximum


def _minimum(a, b):
    return a if a <= b or a != a else b


# The math backend guards what numpy evaluates under errstate: a zero divisor
# or a negative square root gives NaN, and the entropy passes NaN through
# (finite values outside (0, 1) give 0), as binary_entropy_arr does.
_MATH_OPS = SimpleNamespace(
    quiet=contextlib.nullcontext,
    valid=lambda n0, n1, nd, n: n0 >= 0 and n1 >= 0 and nd >= 0 and n < math.inf,
    where=lambda cond, a, b: a if cond else b,
    div=lambda a, b: a / b if b else math.nan,
    sqrt=lambda a: math.sqrt(a) if a >= 0.0 else math.nan,
    maximum=_maximum,
    minimum=_minimum,
    largest=lambda a: a,
    entropy=lambda p: p if p != p else binary_entropy(_minimum(_maximum(p, 0.0), 1.0)),
)

_NUMPY_OPS = SimpleNamespace(
    quiet=lambda: np.errstate(all="ignore"),
    # NaN in an array makes its min and max NaN, which fails the comparison
    valid=lambda n0, n1, nd, n: n0.min() >= 0 and n1.min() >= 0 and nd.min() >= 0 and n.max() < math.inf,
    where=np.where,
    div=np.divide,
    sqrt=np.sqrt,
    maximum=np.maximum,
    minimum=np.minimum,
    largest=np.max,
    entropy=binary_entropy_arr,
)


def _bloch_radius(p_x, p_y, p_z, ops):
    """Unclamped Bloch vector length of the zero-outcome probabilities."""
    return ops.sqrt(ops.maximum(4.0 * (p_x**2 + p_y**2 + p_z**2 - p_x - p_y - p_z) + 3.0, 0.0))


def _coherence(p_z, radius, ops):
    """h(p_z) less the entropy of the state, its radius clamped to the ball, floored at 0."""
    state_entropy = ops.entropy((1.0 + ops.minimum(radius, 1.0)) / 2.0)
    return ops.maximum(ops.entropy(p_z) - state_entropy, 0.0)


def shannon_entropy(dist: Sequence[float]) -> float:
    """Shannon entropy in bits of a normalized outcome distribution."""
    probs = [float(v) for v in dist]
    if len(probs) < 2:
        raise ValueError("distribution needs at least two outcomes")
    if not all(map(math.isfinite, probs)):
        # NaN fails every comparison below, so it would pass them all
        raise ValueError(f"non-finite probability in distribution: {probs}")
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
            _check_fraction(getattr(self, name), name)

    @property
    def bloch(self) -> tuple[float, float, float]:
        return (2.0 * self.p_x - 1.0, 2.0 * self.p_y - 1.0, 2.0 * self.p_z - 1.0)

    @property
    def bloch_norm(self) -> float:
        """Unclamped Bloch vector length.  May exceed 1 for inconsistent data."""
        return _bloch_radius(self.p_x, self.p_y, self.p_z, _MATH_OPS)

    @property
    def is_physical(self) -> bool:
        return self.bloch_norm <= 1.0 + PHYSICALITY_TOL

    @property
    def purity_radius(self) -> float:
        """Bloch length clamped to the unit ball; raises when clearly outside it."""
        r = self.bloch_norm
        if r > 1.0 + PHYSICALITY_TOL:
            raise NonphysicalStateError(self, r)
        return min(r, 1.0)


def coherence_rel_entropy(tomogram: QubitTomogram) -> float:
    """Relative entropy of coherence in the Z eigenbasis, in bits.

    Equals h(p_z) minus the state entropy.  The difference is provably
    nonnegative for physical tomograms; float dust a few ulps below zero is
    clamped so callers can rely on a rate in [0, 1].
    """
    return _coherence(tomogram.p_z, tomogram.purity_radius, _MATH_OPS)


def witness_value(xi_distribution: Sequence[float]) -> float:
    """Uniformly mixing coherence witness W = H(dist) - log2(d).

    Nonpositive for any distribution, and zero exactly when the observed
    distribution in the mutually unbiased basis is uniform (no certifiable
    coherence).
    """
    return shannon_entropy(xi_distribution) - math.log2(len(xi_distribution))


def witness_coherence_bound(xi_distribution: Sequence[float]) -> float:
    """Certified coherence lower bound -W = log2(d) - H(dist) from witness data, d = len(dist)."""
    return 0.0 - witness_value(xi_distribution)  # not -W, which is -0.0 for uniform data
