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
