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
distribution, stratum by stratum (basis, mixed or pure, photon number), from
the per-photon-number outcome probabilities, with the Poisson tail beyond
its largest photon number below 1e-15.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquisition import (
    BasisCounts,
    ClickRecord,
    EpsilonBudget,
    fluctuation_adjust,
    hoeffding_theta,
    squash_bounds,
    worst_case_prob,
)

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
        if not 0.0 <= self.eta <= 1.0:
            raise ValueError(f"eta outside [0, 1]: {self.eta!r}")
        if not 0.0 <= self.p_mix <= 1.0:
            raise ValueError(f"p_mix outside [0, 1]: {self.p_mix!r}")

    @property
    def mu(self) -> float:
        """Detected mean photon number eta * mu0."""
        return self.eta * self.mu0


@dataclass(frozen=True)
class ClickStats:
    """Click counts per basis together with the pulse counts that produced them."""

    x: BasisCounts
    y: BasisCounts
    z: BasisCounts
    pulses_x: float
    pulses_y: float
    pulses_z: float

    def record(self) -> ClickRecord:
        return ClickRecord(x=self.x, y=self.y, z=self.z)

    def basis(self, name: str) -> BasisCounts:
        try:
            return getattr(self, name.lower())
        except AttributeError:
            raise ValueError(f"unknown basis {name!r}") from None


def analytic_click_stats(config: ExperimentConfig) -> ClickStats:
    """Expected click counts of the model, as real numbers."""
    n, q, p = config.n_pulses, config.q, config.p_mix
    e_full = math.exp(-config.mu)
    e_half = math.exp(-config.mu / 2.0)
    singles = e_half - e_full
    doubles = 1.0 + e_full - 2.0 * e_half
    x = BasisCounts(
        n0=n * q * (1.0 - p - e_full + p * e_half),
        n1=n * q * p * singles,
        nd=n * q * p * doubles,
    )
    y = BasisCounts(n0=n * q * singles, n1=n * q * singles, nd=n * q * doubles)
    w = n * (1.0 - 2.0 * q)
    z = BasisCounts(n0=w * singles, n1=w * singles, nd=w * doubles)
    return ClickStats(x=x, y=y, z=z, pulses_x=n * q, pulses_y=n * q, pulses_z=w)


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


def double_click_prob(m: int, eta: float, basis: str, p_mix: float = 0.0) -> float:
    """Probability that an m-photon pulse fires both detectors.

    In the Y and Z arms every photon routes 50/50, giving
    1 + (1 - eta)^m - 2 (1 - eta/2)^m.  In the X arm only the mixed
    component routes, so the same expression is weighted by p_mix.
    """
    if m < 0 or int(m) != m:
        raise ValueError(f"photon number must be a nonnegative integer: {m!r}")
    if not 0.0 <= eta <= 1.0:
        raise ValueError(f"eta outside [0, 1]: {eta!r}")
    if not 0.0 <= p_mix <= 1.0:
        raise ValueError(f"p_mix outside [0, 1]: {p_mix!r}")
    routed = float(_outcome_probs(m, eta)[2])
    basis = basis.lower()
    if basis == "x":
        return p_mix * routed
    if basis in ("y", "z"):
        return routed
    raise ValueError(f"unknown basis {basis!r}")


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


def mc_sample(config: ExperimentConfig, seed: int) -> ClickStats:
    """Monte Carlo click counts; deterministic given (config, seed).

    Pulses are i.i.d., so the counts are drawn per stratum, not per pulse:
    basis split, mixed X pulses, photon numbers per group, and outcomes per
    group and photon number.  The work is O(m_max) whatever the pulse count.
    """
    n = int(config.n_pulses)
    if n != config.n_pulses or n > np.iinfo(np.int64).max:
        raise ValueError(f"Monte Carlo sampling needs an integer pulse count below 2**63: {config.n_pulses!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    n_x, n_y, n_z = rng.multinomial(n, [config.q, config.q, 1.0 - 2.0 * config.q])
    n_mixed = rng.binomial(n_x, config.p_mix)
    pmf = _photon_pmf(config.mu0)
    # rows: pure X, mixed X, Y, Z; columns: photon number
    photons = rng.multinomial([n_x - n_mixed, n_mixed, n_y, n_z], pmf)
    m = np.arange(pmf.size)
    routed = _outcome_probs(m, config.eta)
    table = np.stack([_outcome_probs(m, config.eta, to_zero=1.0), routed, routed, routed])
    outcomes = rng.multinomial(photons, table).sum(axis=1)
    x, y, z = (BasisCounts(*(int(v) for v in row[:3])) for row in (outcomes[0] + outcomes[1], *outcomes[2:]))
    return ClickStats(x, y, z, int(n_x), int(n_y), int(n_z))


@dataclass(frozen=True)
class WorstCaseProbs:
    """Certified worst-case probabilities for the analytic model.

    p_x, p_y, p_z are the values entering the coherence evaluation: interval
    worst case, fluctuation-adjusted, floored at 1/2 (the Y and Z intervals
    of this source are symmetric about 1/2, so their certified worst case is
    exactly 1/2).  raw_* keep the unfloored lower-bound-minus-theta values
    for diagnostics; raw values below 1/2 correspond to the flipped labeling
    1 - raw of the same statistics.
    """

    p_x: float
    p_y: float
    p_z: float
    raw_x: float
    raw_y: float
    raw_z: float
    theta_x: float
    theta_y: float
    theta_z: float
    stats: ClickStats


def simulated_worst_probs(
    config: ExperimentConfig, budget: EpsilonBudget | None = None
) -> WorstCaseProbs:
    """Worst-case probabilities from the analytic expected counts.

    With budget=None the fluctuation terms are zero (infinite-data limit),
    which is useful for inspecting the bare interval worst case.
    """
    stats = analytic_click_stats(config)
    bounds = squash_bounds(stats.record())
    certified: dict[str, float] = {}
    raw: dict[str, float] = {}
    thetas: dict[str, float] = {}
    for name in ("x", "y", "z"):
        counts = stats.basis(name)
        theta = 0.0 if budget is None else hoeffding_theta(counts.n, budget.for_basis(name))
        p_w, _ = worst_case_prob(bounds, name)
        certified[name] = fluctuation_adjust(p_w, theta)
        raw[name] = bounds.basis(name).lower - theta
        thetas[name] = theta
    return WorstCaseProbs(
        p_x=certified["x"],
        p_y=certified["y"],
        p_z=certified["z"],
        raw_x=raw["x"],
        raw_y=raw["y"],
        raw_z=raw["z"],
        theta_x=thetas["x"],
        theta_y=thetas["y"],
        theta_z=thetas["z"],
        stats=stats,
    )
