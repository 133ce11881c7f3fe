"""Single-qubit tomography primitives.

Everything downstream reduces to a handful of entropy evaluations on a qubit
state reconstructed from the zero-outcome probabilities (p_x, p_y, p_z) of
the three Pauli measurements.  The relative entropy of coherence in the Z
eigenbasis has the closed form

    C(rho) = h(p_z) - h((1 + p_o) / 2)

where h is the binary entropy and p_o is the Bloch vector length.  The same
quantity is lower-bounded, without Y data, by the uniformly mixing witness

    C(rho) >= log2(d) - H(Xi(rho))

where Xi is the dephasing map of a basis mutually unbiased with Z.  For a
qubit measured in X this is -W = 1 - h(p_x), which `cli.cmd_compare` puts
beside C.

The Bloch length and the coherence are written once, on a backend namespace:
`_MATH_OPS` for floats, as `acquisition.certify` runs them on one run's
counts, or `_NUMPY_OPS` for arrays, as it runs them on grids of counts and
`cli.cmd_compare` on the Bloch disk.
"""

from __future__ import annotations

import contextlib
import math
from types import SimpleNamespace

import numpy as np

# Tolerance on the Bloch-ball constraint: radii within this excess of 1 are
# accepted as float dust from squared sums, anything beyond is rejected.
PHYSICALITY_TOL = 1e-9


class NonphysicalStateError(ValueError):
    """The measured probabilities are inconsistent with any qubit state."""

    def __init__(self, p_x: float, p_y: float, p_z: float, radius: float):
        super().__init__(
            f"Bloch vector length {radius:.12g} exceeds 1: adjusted probabilities "
            f"(p_x={p_x!r}, p_y={p_y!r}, p_z={p_z!r}) do not describe a qubit state"
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
    """h(p_z) less the entropy of the state, floored at 0; a radius past 1 has state entropy 0, NaN stays NaN."""
    state_entropy = ops.entropy((1.0 + radius) / 2.0)
    return ops.maximum(ops.entropy(p_z) - state_entropy, 0.0)
