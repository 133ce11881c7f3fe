import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siqrng.acquisition import MIN_ENTROPY_COEFF, EpsilonBudget, certify, finite_size_floor, smoothing_log_term
from siqrng.qubit import binary_entropy

from conftest import QubitTomogram, coherence_rel_entropy, random_tomogram_array, witness_coherence_bound

BUDGET = EpsilonBudget.uniform()
counts_strategy = st.tuples(*[st.integers(min_value=0, max_value=10**6)] * 3)


def transverse_cert(p_x: float, n: float, n_z: float, budget=BUDGET, n_pulses=1e12):
    """Certificate of an X-polarized run: Y and Z balanced, so only X purity is coherence."""
    return certify((p_x * n, (1.0 - p_x) * n, 0), (n / 2, n / 2, 0), (n_z / 2, n_z / 2, 0), n_pulses, budget)


def bound(cert) -> float:
    """The finite-size min-entropy bound n_z * C - penalty."""
    return cert.entropy_bound - cert.finite_size_penalty


class TestPenaltyCoefficient:
    def test_exact_value(self):
        assert MIN_ENTROPY_COEFF == pytest.approx(7.086213212654448, rel=1e-15)

    def test_against_mpmath(self):
        mpmath.mp.dps = 50
        reference = 4 * mpmath.log(2 + mpmath.sqrt(2)) / mpmath.log(2)
        assert MIN_ENTROPY_COEFF == pytest.approx(float(reference), rel=1e-14)


class TestFiniteSizeFloor:
    def test_moderate_epsilon(self):
        assert finite_size_floor(0.5) == 5

    def test_tight_epsilon(self):
        assert finite_size_floor(1e-10) == 108

    def test_loose_epsilon(self):
        assert finite_size_floor(0.999999) == 2

    @pytest.mark.parametrize("bad", [0.0, 1.0, -0.5, 2.0])
    def test_domain(self, bad):
        with pytest.raises(ValueError):
            finite_size_floor(bad)

    def test_log_term(self):
        assert smoothing_log_term(1e-10) == pytest.approx(1.0 + 20.0 * math.log2(10.0), rel=1e-14)


class TestMinEntropyBound:
    def test_frozen_example(self):
        cert = transverse_cert(0.9, 1e8, 1e8)
        assert cert.finite_size_penalty == pytest.approx(581926.8094783893, rel=1e-12)
        assert cert.entropy_bound == 1e8 * cert.coherence
        assert bound(cert) == pytest.approx(1e8 * cert.coherence - 581926.8094783893, rel=1e-12)
        # coarse cross-check at reporting precision
        assert cert.finite_size_penalty == pytest.approx(5.828e5, abs=2e3)

    def test_zero_coherence_is_pure_penalty(self):
        n_z = 1e6
        cert = transverse_cert(0.5, n_z, n_z)
        assert cert.coherence == 0.0
        assert bound(cert) == pytest.approx(
            -MIN_ENTROPY_COEFF * math.sqrt(n_z * smoothing_log_term(1e-10)), rel=1e-14
        )
        assert bound(cert) < 0.0
        assert cert.status == "no_positive_rate"

    def test_asymptotic_rate_approaches_coherence(self):
        cert = transverse_cert(0.85, 1e16, 1e16, n_pulses=1e17)
        assert bound(cert) / 1e16 == pytest.approx(cert.coherence, abs=1e-6)
        assert bound(cert) / 1e16 < cert.coherence

    def test_below_floor_rejected(self):
        short = transverse_cert(1.0, 1e6, 107)
        assert short.status == "below_floor"
        assert short.net_bits == 0.0
        enough = transverse_cert(1.0, 1e6, 108)
        assert enough.status != "below_floor"
        assert bound(enough) < 108

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_coherence_domain(self, x, y, z):
        cert = certify(x, y, z, 1e12, BUDGET)
        if cert.status in ("no_clicks", "nonphysical"):
            return
        assert 0.0 <= cert.coherence <= 1.0

    def test_no_transverse_purity_floors_the_dust_at_zero(self):
        # balanced X and Y leave no coherence: h(p_z) less the state entropy is float
        # dust of either sign (-6.7e-16 to 6.7e-16 over this Z sweep), and no less than 0
        z = np.arange(1001)
        grid = certify((500, 500, 0), (500, 500, 0), (z, 1000 - z, 0), 1e4, BUDGET).coherence
        scalar = [certify((500, 500, 0), (500, 500, 0), (k, 1000 - k, 0), 1e4, BUDGET).coherence for k in range(1001)]
        for coherence in (grid, np.array(scalar)):
            assert coherence.min() == 0.0 and coherence.max() <= 1e-15

    def test_monotone_in_coherence(self):
        certs = [transverse_cert(p_x, 1e6, 1e6) for p_x in (0.6, 0.7, 0.8, 0.9, 1.0)]
        assert all(a.coherence < b.coherence for a, b in zip(certs, certs[1:]))
        assert all(bound(a) < bound(b) for a, b in zip(certs, certs[1:]))

    def test_monotone_in_n_z_when_positive(self):
        bounds = [bound(transverse_cert(0.95, 10**k, 10**k)) for k in range(5, 11)]
        assert bounds[0] > 0
        assert all(a < b for a, b in zip(bounds, bounds[1:]))


class TestAsymptoticRates:
    """The two asymptotic rates: coherence for tomography, the witness bound of X statistics alone."""

    def test_ideal_source(self):
        assert witness_coherence_bound((1.0, 0.0)) == 1.0

    def test_unbiased_transverse_statistics_certify_nothing(self):
        assert witness_coherence_bound((0.5, 0.5)) == 0.0

    def test_frozen_value(self):
        assert witness_coherence_bound((0.9, 1.0 - 0.9)) == pytest.approx(0.5310044064107189, abs=1e-15)

    def test_tomo_circular_state(self):
        assert coherence_rel_entropy(QubitTomogram(0.5, 1.0, 0.5)) == pytest.approx(
            1.0, abs=1e-12
        )
        assert witness_coherence_bound((0.5, 0.5)) == 0.0

    def test_tomo_mixed_state(self):
        assert coherence_rel_entropy(QubitTomogram(0.5, 0.5, 0.5)) == 0.0

    def test_gap_on_tilted_pure_state(self):
        t = QubitTomogram(p_x=0.8, p_y=0.9, p_z=0.5)
        assert coherence_rel_entropy(t) == pytest.approx(1.0, abs=1e-9)
        assert witness_coherence_bound((0.8, 1.0 - 0.8)) == pytest.approx(0.2780719051126377, abs=1e-15)

    def test_dominance(self, tomogram_batch):
        for p_x, p_y, p_z in tomogram_batch(2000, seed=41):
            t = QubitTomogram(p_x, p_y, p_z)
            assert coherence_rel_entropy(t) >= witness_coherence_bound((p_x, 1.0 - p_x)) - 1e-12

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_equality_on_transverse_plane(self, p_x):
        t = QubitTomogram(p_x=p_x, p_y=0.5, p_z=0.5)
        assert abs(coherence_rel_entropy(t) - witness_coherence_bound((p_x, 1.0 - p_x))) <= 1e-9

    @given(st.floats(min_value=0.0, max_value=1.0))
    @example(0.5)
    @example(0.0)
    @example(1.0)
    def test_witness_rate_is_one_minus_binary_entropy(self, p_x):
        # the X-only rate is the witness bound; it must equal 1 - h(p_x) to the bit
        rate = witness_coherence_bound((p_x, 1.0 - p_x))
        expected = 1.0 - binary_entropy(p_x)
        assert rate == expected
        assert math.copysign(1.0, rate) == math.copysign(1.0, expected)

    @pytest.mark.parametrize("p_x", [math.nan, -0.1, 1.1, math.inf, -math.inf])
    def test_witness_rate_rejects_bad_probability(self, p_x):
        with pytest.raises(ValueError):
            witness_coherence_bound((p_x, 1.0 - p_x))


class TestRateReport:
    def test_fields_and_invariants(self):
        cert = certify((9e7, 5e6, 5e6), (4.5e7, 4.5e7, 1e7), (4.5e7, 4.5e7, 1e7), 3e8, BUDGET)
        assert cert.entropy_bound == pytest.approx(1e8 * cert.coherence, rel=1e-12)
        assert cert.double_click_cost == 1e7
        assert cert.net_bits == pytest.approx(
            cert.entropy_bound - cert.finite_size_penalty - cert.double_click_cost,
            rel=1e-12,
        )
        assert cert.rate_per_pulse == pytest.approx(cert.net_bits / 3e8, rel=1e-12)
        assert cert.status == "ok"

    def test_zero_coherence_floors_at_zero(self):
        cert = transverse_cert(0.5, 1e6, 1e6, n_pulses=3e6)
        assert cert.net_bits == 0.0
        assert cert.rate_per_pulse == 0.0
        assert cert.status == "no_positive_rate"

    @given(counts_strategy, counts_strategy, counts_strategy, st.sampled_from(["discard", "assign"]))
    def test_hand_arithmetic_invariant(self, x, y, z, policy):
        cert = certify(x, y, z, 1e7, BUDGET, policy)
        if cert.status == "ok":
            assert cert.net_bits == cert.entropy_bound - cert.finite_size_penalty - cert.double_click_cost
            assert cert.net_bits > 0.0
        else:
            assert cert.net_bits == 0.0

    def test_assembled_arithmetic(self):
        # n_z = 961 at eps1 = 0.12: the penalty is k * sqrt(961 * log2(2 / 0.12^2))
        budget = EpsilonBudget(0.12, 0.01, 0.01, 0.01, 0.01)
        cert = certify((961, 0, 0), (480, 481, 0), (480, 481, 0), 3000.0, budget)
        penalty = MIN_ENTROPY_COEFF * math.sqrt(961.0 * smoothing_log_term(0.12))
        assert cert.finite_size_penalty == pytest.approx(penalty, rel=1e-15)
        assert cert.net_bits == pytest.approx(961.0 * cert.coherence - penalty, rel=1e-12)
        assert cert.net_bits == pytest.approx(104.00958052015244, rel=1e-9)
        assert cert.rate_per_pulse == pytest.approx(0.10400958052015244 / 3.0, rel=1e-9)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            certify((900, 50, 50), (450, 450, 100), (450, 450, -1.0), 1e6, BUDGET)
        with pytest.raises(ValueError):
            certify((900, 50, 50), (450, 450, 100), (450, 450, 100), 0.0, BUDGET)
