import hypothesis
import numpy as np
import pytest

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
    library builds its per-photon-number outcome table another way
    (`detector._outcome_probs`), which this checks.  eta and p_mix go
    through the library's [0, 1] check, so a bad fraction cannot reach a
    comparison.
    """
    from siqrng.qubit import _check_fraction

    _check_fraction(eta, "eta")
    _check_fraction(p_mix, "p_mix")
    routed = 1.0 + (1.0 - eta) ** m - 2.0 * (1.0 - eta / 2.0) ** m
    return p_mix * routed if basis == "x" else routed


def von_neumann_entropy(tomogram) -> float:
    """Entropy in bits of the state reconstructed from the tomogram."""
    from siqrng.qubit import binary_entropy

    return binary_entropy((1.0 + tomogram.purity_radius) / 2.0)


def per_pulse_sample(config, seed: int):
    """Reference Monte Carlo: every pulse drawn on its own, for up to 1e6 pulses.

    Basis, photon number, survivors, mixing and 50/50 routing are sampled per
    pulse, as the optical model describes them; the library's stratified
    sampler must agree with this in distribution.
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
