"""Optical model: phase-randomized pulses on threshold detectors.

Each pulse carries a Poisson(mu0) photon number and is, with probability
p_mix, drawn from the maximally mixed qubit state instead of the pure |+>
state.  The basis choice routes the pulse to one of three measurement
arms (X with probability q, Y with q, Z with 1 - 2q); each photon reaches
a detector with efficiency eta, so only mu = eta * mu0 is observable.  In
the X arm a pure pulse sends every photon to detector 0, while a mixed
pulse, and any pulse in the Y or Z arm, routes each photon independently
50/50.  A threshold detector clicks when at least one photon arrives.

Expected click counts then have closed forms; writing E = exp(-mu) and
Eh = exp(-mu / 2), the per-pulse rates are

    X:  n0 = 1 - p - E + p Eh     n1 = p (Eh - E)    nd = p (1 + E - 2 Eh)
    Y,Z: n0 = n1 = Eh - E                            nd = 1 + E - 2 Eh

scaled by N q (X, Y) or N (1 - 2q) (Z).  The Monte Carlo sampler below
checks them without using these exponentials: it draws the counts exactly in
distribution, one multinomial per group (pure X, mixed X, Y, Z), from the
per-photon-number outcome probabilities averaged over a Poisson photon
number whose tail beyond its largest value is below 1e-15.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .acquisition import BasisCounts, ClickRecord
from .qubit import _check_fraction

# Poisson mass beyond the largest sampled photon number (lumped into it).
PHOTON_TAIL = 1e-15
# Cap on the photon-number window, reached near mu0 = 9.5e4.
MAX_PHOTONS = 100_000


@dataclass(frozen=True)
class ExperimentConfig:
    """Source, channel and sampling parameters of one run."""

    n_pulses: float
    q: float
    mu0: float
    eta: float
    p_mix: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.n_pulses) and self.n_pulses >= 1):
            raise ValueError(f"n_pulses must be finite and at least 1: {self.n_pulses!r}")
        if not 0.0 < self.q < 0.5:
            raise ValueError(f"q must lie strictly in (0, 1/2): {self.q!r}")
        if not (math.isfinite(self.mu0) and self.mu0 > 0.0):
            raise ValueError(f"mu0 must be finite and positive: {self.mu0!r}")
        _check_fraction(self.eta, "eta")
        _check_fraction(self.p_mix, "p_mix")

    @property
    def mu(self) -> float:
        """Detected mean photon number eta * mu0."""
        return self.eta * self.mu0


@dataclass(frozen=True)
class ClickStats(ClickRecord):
    """Click counts per basis together with the pulse counts that produced them."""

    pulses_x: float
    pulses_y: float
    pulses_z: float


def expected_counts(n_pulses, q, mu, p_mix, exp=math.exp):
    """Closed-form expected (n0, n1, nd) of bases X, Y and Z.

    mu is the detected intensity.  With exp=np.exp the arguments may be
    arrays, and so are the counts.
    """
    p = p_mix
    e_full = exp(-mu)
    e_half = exp(-mu / 2.0)
    singles = e_half - e_full
    doubles = 1.0 + e_full - 2.0 * e_half
    n_xy = n_pulses * q
    n_z = n_pulses * (1.0 - 2.0 * q)
    n_mixed = n_xy * p
    half_xy, half_z = n_xy * singles, n_z * singles
    return (
        (n_xy * (1.0 - p - e_full + p * e_half), n_mixed * singles, n_mixed * doubles),
        (half_xy, half_xy, n_xy * doubles),
        (half_z, half_z, n_z * doubles),
    )


def analytic_click_stats(config: ExperimentConfig) -> ClickStats:
    """Expected click counts of the model, as real numbers."""
    n, q = config.n_pulses, config.q
    x, y, z = (BasisCounts(*c) for c in expected_counts(n, q, config.mu, config.p_mix))
    return ClickStats(x=x, y=y, z=z, pulses_x=n * q, pulses_y=n * q, pulses_z=n * (1.0 - 2.0 * q))


def _outcome_probs(m: np.ndarray, eta: float, to_zero: float = 0.5) -> np.ndarray:
    """Probabilities of (only 0, only 1, both, neither) clicking for m photons.

    Each photon survives with probability eta and then reaches detector 0
    with probability to_zero: 1/2 where it routes 50/50, 1 for pure X.
    """
    m = np.asarray(m, dtype=float)
    none = (1.0 - eta) ** m
    only0 = (1.0 - eta * (1.0 - to_zero)) ** m - none
    only1 = (1.0 - eta * to_zero) ** m - none
    both = np.maximum(1.0 - none - only0 - only1, 0.0)
    return np.stack([only0, only1, both, none], axis=-1)


def _photon_pmf(mu0: float) -> np.ndarray:
    """Poisson(mu0) probabilities of 0..m_max photons, the tail lumped into m_max.

    m_max is the smallest photon number with P(m > m_max) < PHOTON_TAIL.  The
    pmf is computed in log space over a window with a negligible tail, and
    the tail is summed smallest term first, so that 1e-15 is well resolved.
    """
    top = math.ceil(mu0 + 16.0 * math.sqrt(mu0) + 40.0)
    if top > MAX_PHOTONS:
        raise ValueError(f"mu0 too large for photon-number sampling: {mu0!r}")
    m = np.arange(top + 1)
    log_factorial = np.concatenate(([0.0], np.cumsum(np.log(m[1:]))))
    pmf = np.exp(m * math.log(mu0) - mu0 - log_factorial)
    pmf /= pmf.sum()  # rounding in the logs, not the window, sets the sum apart from 1
    assert pmf[-1] < 1e-6 * PHOTON_TAIL, "photon window shorter than the tail bound needs"
    tail = np.append(np.cumsum(pmf[:0:-1])[::-1], 0.0)  # tail[k] = P(k < m <= top)
    m_max = int(np.argmax(tail < PHOTON_TAIL))
    pmf = pmf[: m_max + 1]
    pmf[m_max] += tail[m_max]
    return pmf


@functools.lru_cache(maxsize=8)
def _sampler_tables(mu0: float, eta: float) -> np.ndarray:
    """Read-only (4, 4) outcome probabilities per pulse of mc_sample's groups.

    Rows are the groups pure X, mixed X, Y, Z; columns the outcome order of
    _outcome_probs, averaged over the truncated Poisson photon number.
    Rounding can leave an entry just above 1 (1.0000000000000002 at
    mu0 = 100, eta = 1), which Generator.multinomial refuses, so entries
    are clipped to 1.
    """
    pmf = _photon_pmf(mu0)
    m = np.arange(pmf.size)
    routed = pmf @ _outcome_probs(m, eta)
    probs = np.stack([pmf @ _outcome_probs(m, eta, to_zero=1.0), routed, routed, routed]).clip(max=1.0)
    probs.flags.writeable = False
    return probs


def mc_sample(config: ExperimentConfig, seed: int) -> ClickStats:
    """Monte Carlo click counts; deterministic given (config, seed).

    Pulses are i.i.d., so the counts are drawn per group, not per pulse:
    basis split, mixed X pulses, and one multinomial of each group's
    outcomes.  The work does not grow with the pulse count; the outcome
    probabilities are built once per (mu0, eta) in a process, in O(m_max).
    """
    n = int(config.n_pulses)
    if n != config.n_pulses or n > np.iinfo(np.int64).max:
        raise ValueError(f"Monte Carlo sampling needs an integer pulse count below 2**63: {config.n_pulses!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_x, n_y, n_z = rng.multinomial(n, [config.q, config.q, 1.0 - 2.0 * config.q]).tolist()
    n_mixed = rng.binomial(n_x, config.p_mix)
    probs = _sampler_tables(config.mu0, config.eta)
    pure, mixed, y, z = rng.multinomial([n_x - n_mixed, n_mixed, n_y, n_z], probs).tolist()
    x = BasisCounts(pure[0] + mixed[0], pure[1] + mixed[1], pure[2] + mixed[2])
    return ClickStats(x, BasisCounts(*y[:3]), BasisCounts(*z[:3]), n_x, n_y, n_z)
