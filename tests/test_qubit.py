import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from siqrng.detector import ExperimentConfig
from siqrng.qubit import NonphysicalStateError, binary_entropy, binary_entropy_arr

from conftest import (
    QubitTomogram,
    coherence_rel_entropy,
    double_click_prob,
    random_tomogram_array,
    shannon_entropy,
    von_neumann_entropy,
    witness_coherence_bound,
    witness_value,
)


def physical_tomograms(count: int, seed: int) -> list[QubitTomogram]:
    return [QubitTomogram(*row) for row in random_tomogram_array(count, seed)]


class TestBinaryEntropy:
    def test_half_is_one(self):
        assert binary_entropy(0.5) == 1.0

    def test_endpoints_are_zero(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    def test_frozen_value(self):
        assert binary_entropy(0.8) == pytest.approx(0.7219280948873623, abs=1e-15)

    @pytest.mark.parametrize("bad", [-0.1, 1.1, 2.0, -1e-12])
    def test_domain_error(self, bad):
        with pytest.raises(ValueError):
            binary_entropy(bad)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry_and_range(self, p):
        h = binary_entropy(p)
        assert 0.0 <= h <= 1.0
        assert h == pytest.approx(binary_entropy(1.0 - p), abs=1e-12)

    def test_vectorized_matches_scalar(self):
        grid = np.linspace(0.0, 1.0, 101)
        expected = np.array([binary_entropy(p) for p in grid])
        assert np.allclose(binary_entropy_arr(grid), expected, atol=1e-15)

    def test_vectorized_propagates_nan(self):
        # an undefined probability must not read as a certain outcome (h = 0)
        out = binary_entropy_arr(np.array([math.nan, 0.5]))
        assert np.isnan(out[0]) and out[1] == 1.0
        assert np.isnan(binary_entropy_arr(math.nan))
        assert binary_entropy_arr(0.8).shape == ()
        assert float(binary_entropy_arr(0.8)) == pytest.approx(0.7219280948873623, abs=1e-15)
        assert np.array_equal(binary_entropy_arr([0.0, 1.0, -0.5, 1.5]), np.zeros(4))


class TestShannonEntropy:
    def test_uniform(self):
        assert shannon_entropy([0.25] * 4) == pytest.approx(2.0, abs=1e-12)

    def test_not_normalized(self):
        with pytest.raises(ValueError):
            shannon_entropy([0.5, 0.6])

    def test_negative_entry(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.1, -0.1])

    def test_too_short(self):
        with pytest.raises(ValueError):
            shannon_entropy([1.0])

    @pytest.mark.parametrize("fn", [shannon_entropy, witness_value, witness_coherence_bound])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "dist, position",
        [pytest.param(d, i, id=f"d{len(d)}-at{i}") for d in ([0.5, 0.5], [0.25, 0.25, 0.5]) for i in range(len(d))],
    )
    def test_non_finite_entry_rejected(self, fn, value, dist, position):
        # NaN fails every range and normalization comparison: unchecked, [nan, 0.5]
        # gave a witness bound of 0.5 bit and [nan, nan] one of 1 bit
        one_bad = list(dist)
        one_bad[position] = value
        for entries in (one_bad, [value] * len(dist)):
            with pytest.raises(ValueError, match="non-finite"):
                fn(entries)


class TestTomogram:
    def test_probability_range_enforced(self):
        with pytest.raises(ValueError):
            QubitTomogram(p_x=1.2, p_y=0.5, p_z=0.5)

    def test_bloch_vector(self):
        t = QubitTomogram(p_x=0.8, p_y=0.9, p_z=0.5)
        assert t.bloch == pytest.approx((0.6, 0.8, 0.0), abs=1e-12)
        assert t.bloch_norm == pytest.approx(1.0, abs=1e-12)

    def test_nonphysical_flagged_then_rejected(self):
        t = QubitTomogram(p_x=1.0, p_y=1.0, p_z=0.5)
        assert not t.is_physical
        with pytest.raises(NonphysicalStateError) as caught:
            t.purity_radius
        assert str(caught.value) == (
            "Bloch vector length 1.41421356237 exceeds 1: adjusted probabilities "
            "(p_x=1.0, p_y=1.0, p_z=0.5) do not describe a qubit state"
        )

    def test_radius_clamped_within_tolerance(self):
        # 1e-5 off the pole overshoots the ball by ~2e-10, inside the tolerance
        t = QubitTomogram(p_x=1.0, p_y=0.5 + 1e-5, p_z=0.5)
        assert t.bloch_norm > 1.0
        assert t.purity_radius == 1.0


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        assert von_neumann_entropy(QubitTomogram(0.5, 0.5, 0.5)) == 1.0

    def test_pure_state(self):
        assert von_neumann_entropy(QubitTomogram(1.0, 0.5, 0.5)) == 0.0

    def test_frozen_value(self):
        t = QubitTomogram(0.95, 0.5, 0.5)
        assert von_neumann_entropy(t) == pytest.approx(0.2863969571159563, abs=1e-15)

    def test_matches_eigenvalue_oracle(self):
        # independent path: build the density matrix and diagonalize it
        sigma = [
            np.array([[0, 1], [1, 0]], dtype=complex),
            np.array([[0, -1j], [1j, 0]], dtype=complex),
            np.array([[1, 0], [0, -1]], dtype=complex),
        ]
        for t in physical_tomograms(200, seed=11):
            rho = np.eye(2, dtype=complex) / 2.0
            for r_i, s_i in zip(t.bloch, sigma):
                rho += r_i * s_i / 2.0
            eigs = np.linalg.eigvalsh(rho)
            expected = -sum(v * math.log2(v) for v in eigs if v > 1e-15)
            assert von_neumann_entropy(t) == pytest.approx(expected, abs=1e-9)


class TestCoherence:
    def test_maximally_mixed_is_incoherent(self):
        assert coherence_rel_entropy(QubitTomogram(0.5, 0.5, 0.5)) == 0.0

    def test_circular_state_is_fully_coherent(self):
        assert coherence_rel_entropy(QubitTomogram(0.5, 1.0, 0.5)) == pytest.approx(1.0, abs=1e-12)

    def test_frozen_value(self):
        t = QubitTomogram(0.95, 0.5, 0.5)
        assert coherence_rel_entropy(t) == pytest.approx(0.7136030428840436, abs=1e-15)

    def test_nonphysical_rejected(self):
        with pytest.raises(NonphysicalStateError):
            coherence_rel_entropy(QubitTomogram(1.0, 1.0, 1.0))

    def test_range(self):
        for t in physical_tomograms(2000, seed=5):
            assert 0.0 <= coherence_rel_entropy(t) <= 1.0

    def test_pure_state_identity(self):
        # on the Bloch sphere surface the coherence is exactly h(p_z)
        rng = np.random.default_rng(7)
        for _ in range(300):
            v = rng.normal(size=3)
            v /= np.linalg.norm(v)
            t = QubitTomogram(*(1.0 + v) / 2.0)
            assert coherence_rel_entropy(t) == pytest.approx(
                binary_entropy(t.p_z), abs=1e-9
            )

    def test_uncertainty_relation(self):
        for t in physical_tomograms(2000, seed=3):
            lhs = binary_entropy(t.p_z) + binary_entropy(t.p_x)
            rhs = 1.0 + von_neumann_entropy(t)
            assert lhs >= rhs - 1e-9

    def test_minimal_at_half_along_each_axis(self):
        # dC/dp_j <= 0 below 1/2, >= 0 above, ~0 at 1/2 (finite differences):
        # pushing any probability toward 1/2 can only lower the coherence
        h = 1e-6
        grid = [0.15, 0.3, 0.45, 0.5, 0.55, 0.7, 0.85]
        base = QubitTomogram(0.55, 0.52, 0.6)
        for axis in ("p_x", "p_y", "p_z"):
            for value in grid:
                fields = {"p_x": base.p_x, "p_y": base.p_y, "p_z": base.p_z}
                lo = dict(fields, **{axis: value - h})
                hi = dict(fields, **{axis: value + h})
                deriv = (
                    coherence_rel_entropy(QubitTomogram(**hi))
                    - coherence_rel_entropy(QubitTomogram(**lo))
                ) / (2.0 * h)
                if value < 0.5:
                    assert deriv <= 1e-6
                elif value > 0.5:
                    assert deriv >= -1e-6
                else:
                    assert abs(deriv) <= 1e-6


class TestWitness:
    def test_uniform_gives_zero(self):
        assert witness_value([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
        assert witness_value([0.25] * 4) == pytest.approx(0.0, abs=1e-12)

    def test_deterministic_distribution(self):
        assert witness_value([1.0, 0.0]) == pytest.approx(-1.0, abs=1e-12)

    def test_always_nonpositive(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            d = rng.integers(2, 6)
            w = rng.random(d)
            w /= w.sum()
            assert witness_value(w) <= 1e-12

    def test_bound_examples(self):
        assert witness_coherence_bound([1.0, 0.0]) == pytest.approx(1.0, abs=1e-12)
        assert witness_coherence_bound([0.5, 0.5]) == pytest.approx(0.0, abs=1e-12)
        assert witness_coherence_bound([0.95, 0.05]) == pytest.approx(
            0.7136030428840436, abs=1e-15
        )

    def test_uniform_bound_is_positive_zero(self):
        bound = witness_coherence_bound([0.5, 0.5])
        assert bound == 0.0 and math.copysign(1.0, bound) == 1.0

    def test_soundness_against_coherence(self):
        # the witness bound from either transverse basis never exceeds C
        for t in physical_tomograms(2000, seed=23):
            c = coherence_rel_entropy(t)
            assert c >= witness_coherence_bound([t.p_x, 1.0 - t.p_x]) - 1e-9
            assert c >= witness_coherence_bound([t.p_y, 1.0 - t.p_y]) - 1e-9


def _config(**kwargs) -> ExperimentConfig:
    return ExperimentConfig(**{"n_pulses": 1e6, "q": 0.05, "mu0": 1.0, "eta": 1.0, "p_mix": 0.1, **kwargs})


# (parameter name in the message, call that checks it), one per call site; the double_click rows
# call the conftest oracle, which checks its fractions with the library's check
FRACTION_CHECKS = [
    pytest.param("probability", binary_entropy, id="binary_entropy"),
    pytest.param("p_x", lambda v: QubitTomogram(v, 0.5, 0.5), id="tomogram-p_x"),
    pytest.param("p_y", lambda v: QubitTomogram(0.5, v, 0.5), id="tomogram-p_y"),
    pytest.param("p_z", lambda v: QubitTomogram(0.5, 0.5, v), id="tomogram-p_z"),
    pytest.param("eta", lambda v: _config(eta=v), id="config-eta"),
    pytest.param("p_mix", lambda v: _config(p_mix=v), id="config-p_mix"),
    pytest.param("eta", lambda v: double_click_prob(2, v, "x", 0.5), id="double_click-eta"),
    pytest.param("p_mix", lambda v: double_click_prob(2, 0.5, "x", v), id="double_click-p_mix"),
]


@pytest.mark.parametrize("value", [math.nan, -0.1, 1.1])
@pytest.mark.parametrize("name, call", FRACTION_CHECKS)
def test_fraction_check_message(name, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{name} outside [0, 1]: {value!r}"
