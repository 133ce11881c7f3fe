import math
from dataclasses import dataclass
from typing import Sequence

import hypothesis
import numpy as np
import pytest

from siqrng.qubit import (
    _MATH_OPS,
    PHYSICALITY_TOL,
    NonphysicalStateError,
    _bloch_radius,
    _check_fraction,
    _coherence,
    binary_entropy,
)

hypothesis.settings.register_profile(
    "siqrng", deadline=None, max_examples=100, derandomize=True
)
hypothesis.settings.load_profile("siqrng")


def random_tomogram_array(count: int, seed: int) -> np.ndarray:
    """(count, 3) array of (p_x, p_y, p_z) triples uniform over the Bloch ball."""
    rng = np.random.default_rng(seed)
    direction = rng.normal(size=(count, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    radius = rng.random(count) ** (1.0 / 3.0)
    return (1.0 + direction * radius[:, None]) / 2.0


@pytest.fixture
def tomogram_batch():
    return random_tomogram_array


@pytest.fixture
def perturb_irfft(monkeypatch):
    """Call with (index, offset) to make np.fft.irfft add offset to that entry of its result."""

    def apply(index: int, offset: float) -> None:
        irfft = np.fft.irfft

        def wrapped(*args, **kwargs):
            result = irfft(*args, **kwargs)
            result[index] += offset
            return result

        monkeypatch.setattr(np.fft, "irfft", wrapped)

    return apply


def double_click_prob(m: int, eta: float, basis: str, p_mix: float = 0.0) -> float:
    """Closed-form probability that an m-photon pulse fires both detectors.

    In the Y and Z arms every photon routes 50/50, giving
    1 + (1 - eta)^m - 2 (1 - eta/2)^m.  In the X arm only the mixed
    component routes, so the same expression is weighted by p_mix.  The
    photon-number oracle below builds its outcome table another way
    (`outcome_probs`), which this checks.  eta and p_mix go through the
    library's [0, 1] check, so a bad fraction cannot reach a comparison.
    """
    _check_fraction(eta, "eta")
    _check_fraction(p_mix, "p_mix")
    routed = 1.0 + (1.0 - eta) ** m - 2.0 * (1.0 - eta / 2.0) ** m
    return p_mix * routed if basis == "x" else routed


# The photon-number oracle of the Monte Carlo sampler's rates: outcome probabilities
# per photon number, averaged over a truncated Poisson photon number.  The library
# draws from the closed form, which this derives independently of its exponentials.

# Poisson mass beyond the largest photon number summed over (lumped into it).
PHOTON_TAIL = 1e-15
# Cap on the photon-number window, reached near mu0 = 9.5e4.
MAX_PHOTONS = 100_000


def outcome_probs(m, eta: float, to_zero: float = 0.5) -> np.ndarray:
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


def photon_pmf(mu0: float) -> np.ndarray:
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


def photon_averaged_probs(mu0: float, eta: float) -> np.ndarray:
    """(4, 4) outcome probabilities per pulse of the groups pure X, mixed X, Y, Z.

    Columns are in the order of outcome_probs, averaged over the truncated
    Poisson photon number.
    """
    pmf = photon_pmf(mu0)
    m = np.arange(pmf.size)
    routed = pmf @ outcome_probs(m, eta)
    return np.stack([pmf @ outcome_probs(m, eta, to_zero=1.0), routed, routed, routed])


def von_neumann_entropy(tomogram) -> float:
    """Entropy in bits of the state reconstructed from the tomogram."""
    return binary_entropy((1.0 + tomogram.purity_radius) / 2.0)


# The scalar rates, one tomogram or one distribution at a time: oracles for the
# array path that `certify` and `compare` run.

# Tolerance on the normalization of an outcome distribution.
DISTRIBUTION_TOL = 1e-9


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
            raise NonphysicalStateError(self.p_x, self.p_y, self.p_z, r)
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


def per_pulse_sample(config, seed: int):
    """Reference Monte Carlo: every pulse drawn on its own, for up to 1e6 pulses.

    Basis, photon number, survivors, mixing and 50/50 routing are sampled per
    pulse, as the optical model describes them; the library's sampler, which
    draws each group's outcomes at once, must agree with this in distribution.
    """
    from siqrng.acquisition import BasisCounts
    from siqrng.detector import ClickStats

    n = int(config.n_pulses)
    if n != config.n_pulses or n > 1_000_000:
        raise ValueError(f"the per-pulse reference takes an integer pulse count up to 1e6: {config.n_pulses!r}")
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    q = config.q
    u = rng.random(n)
    basis = np.where(u < q, 0, np.where(u < 2.0 * q, 1, 2))
    survivors = rng.binomial(rng.poisson(config.mu0, n), config.eta)
    mixed = rng.random(n) < config.p_mix
    routed0 = rng.binomial(survivors, 0.5)
    k0 = np.where((basis == 0) & ~mixed, survivors, routed0)
    click0 = k0 > 0
    click1 = survivors - k0 > 0
    counts, pulses = [], []
    for code in (0, 1, 2):
        sel = basis == code
        pulses.append(int(sel.sum()))
        counts.append(
            BasisCounts(
                n0=int((sel & click0 & ~click1).sum()),
                n1=int((sel & click1 & ~click0).sum()),
                nd=int((sel & click0 & click1).sum()),
            )
        )
    return ClickStats(*counts, *pulses)


def reference_fmt(value) -> str:
    """Reference report formatting: bool, int and float by isinstance, everything else by str."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return f"{value:.9g}"
    return str(value)


def reference_emit(doc, out) -> None:
    """Reference report writer: one print per 'key: value' line."""
    for key, value in doc:
        print(f"{key}: {reference_fmt(value)}", file=out)


def reference_csv_text(header, rows) -> str:
    """Reference CSV text: the header, then every value of every row through reference_fmt, held whole."""
    lines = [",".join(header), *(",".join(reference_fmt(v) for v in row) for row in rows)]
    return "\n".join(lines) + "\n"
