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

    X:  n0 = (1 - p)(1 - E) + p Eh (1 - Eh)   n1 = p Eh (1 - Eh)   nd = p (1 - Eh)^2
    Y,Z: n0 = n1 = Eh (1 - Eh)                                    nd = (1 - Eh)^2

scaled by N q (X, Y) or N (1 - 2q) (Z).  A routed pulse fires each detector
on its own with mean mu / 2, so a double is the square of one arm's click
probability; written so, no rate rounds below zero at small mu.  The Monte
Carlo sampler draws the counts exactly in distribution from the same rates,
one multinomial per group (pure X, mixed X, Y, Z).  So `--mc` checks only
the sampling: the basis split, the mixed share and the groups.  The rates
themselves are checked in the tests, to 1e-14, against outcome probabilities
summed over the photon number, not at run time to 5 sigma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquisition import BasisCounts, ClickRecord
from .qubit import _check_fraction


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


def _arm_rates(mu, exp=math.exp):
    """Per-pulse (pure X click, routed single, routed double, no click) rates at intensity mu.

    A pure X pulse clicks detector 0 whenever a photon arrives; a routed
    pulse clicks one given detector only, or both.  With exp=np.exp, mu may
    be an array.
    """
    e_full = exp(-mu)
    e_half = exp(-mu / 2.0)
    hit_half = 1.0 - e_half
    return 1.0 - e_full, e_half * hit_half, hit_half * hit_half, e_full


def expected_counts(n_pulses, q, mu, p_mix, exp=math.exp):
    """Closed-form expected (n0, n1, nd) of bases X, Y and Z.

    mu is the detected intensity.  With exp=np.exp the arguments may be
    arrays, and so are the counts.
    """
    p = p_mix
    pure, singles, doubles, _ = _arm_rates(mu, exp)
    n_xy = n_pulses * q
    n_z = n_pulses * (1.0 - 2.0 * q)
    n_mixed = n_xy * p
    half_xy, half_z = n_xy * singles, n_z * singles
    return (
        (n_xy * ((1.0 - p) * pure + p * singles), n_mixed * singles, n_mixed * doubles),
        (half_xy, half_xy, n_xy * doubles),
        (half_z, half_z, n_z * doubles),
    )


def analytic_click_stats(config: ExperimentConfig) -> ClickStats:
    """Expected click counts of the model, as real numbers."""
    n, q = config.n_pulses, config.q
    x, y, z = (BasisCounts(*c) for c in expected_counts(n, q, config.mu, config.p_mix))
    return ClickStats(x=x, y=y, z=z, pulses_x=n * q, pulses_y=n * q, pulses_z=n * (1.0 - 2.0 * q))


def mc_sample(config: ExperimentConfig, seed: int) -> ClickStats:
    """Monte Carlo click counts; deterministic given (config, seed).

    Pulses are i.i.d., so the counts are drawn per group, not per pulse:
    basis split, mixed X pulses, and one multinomial of each group's
    outcomes over the closed-form rates.  The work grows with neither the
    pulse count nor mu0.
    """
    n = int(config.n_pulses)
    if n != config.n_pulses or n > np.iinfo(np.int64).max:
        raise ValueError(f"Monte Carlo sampling needs an integer pulse count below 2**63: {config.n_pulses!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_x, n_y, n_z = rng.multinomial(n, [config.q, config.q, 1.0 - 2.0 * config.q]).tolist()
    n_mixed = rng.binomial(n_x, config.p_mix)
    click, single, double, dark = _arm_rates(config.mu)
    routed = (single, single, double, dark)
    probs = ((click, 0.0, 0.0, dark), routed, routed, routed)
    pure, mixed, y, z = rng.multinomial([n_x - n_mixed, n_mixed, n_y, n_z], probs).tolist()
    x = BasisCounts(pure[0] + mixed[0], pure[1] + mixed[1], pure[2] + mixed[2])
    return ClickStats(x, BasisCounts(*y[:3]), BasisCounts(*z[:3]), n_x, n_y, n_z)
