"""Finite-size and asymptotic randomness bounds.

The certified output length against a quantum side channel is

    R >= n_z * C - k * sqrt(n_z * log2(2 / eps1^2))       k = 4 log2(2 + sqrt(2))

valid once n_z clears a floor that grows only logarithmically in 1/eps1
(`acquisition.certify` evaluates the bound).  The penalty constant k is kept in exact form; its two-decimal rounding 7.09
is also exported for reporting because the rounding direction matters when
the constant multiplies a subtracted security term.
"""

from __future__ import annotations

import math

from .qubit import QubitTomogram, _check_fraction, coherence_rel_entropy, witness_coherence_bound

MIN_ENTROPY_COEFF = 4.0 * math.log2(2.0 + math.sqrt(2.0))
MIN_ENTROPY_COEFF_2DP = 7.09


def _check_epsilon(value: float, name: str = "epsilon") -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1): {value!r}")


def smoothing_log_term(epsilon1: float) -> float:
    """log2(2 / eps1^2), the sample-complexity factor of the finite-size penalty."""
    _check_epsilon(epsilon1, "epsilon1")
    return math.log2(2.0 / epsilon1**2)


def finite_size_floor(epsilon1: float) -> int:
    """Smallest Z-basis sample size for which the finite-size bound is valid.

    Uses the exact validity condition n_z >= (8/5) * log2(2 / eps1^2).  The
    ceiling is taken without a slack tolerance: rounding up is the
    conservative direction for a validity threshold.
    """
    return math.ceil(1.6 * smoothing_log_term(epsilon1))


def witness_rate_asymptotic(p_x: float, q: float = 1.0, beta: float = 1.0) -> float:
    """Asymptotic bits per pulse certified from X-basis statistics alone.

    q is the X-basis sampling probability and beta the detection rate; with
    both at 1 this is the witness bound of (p_x, 1 - p_x), equal to 1 - h(p_x).
    """
    _check_fraction(q, "q")
    _check_fraction(beta, "beta")
    return q * beta * witness_coherence_bound((p_x, 1.0 - p_x))


def tomo_rate_asymptotic(tomogram: QubitTomogram, q_z: float = 1.0, beta: float = 1.0) -> float:
    """Asymptotic bits per pulse from full tomography: q_z * beta * C(rho)."""
    _check_fraction(q_z, "q_z")
    _check_fraction(beta, "beta")
    return q_z * beta * coherence_rel_entropy(tomogram)
