import dataclasses
import itertools
import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from siqrng import acquisition
from siqrng.acquisition import (
    POLICIES,
    STATUSES,
    BasisCounts,
    Certificate,
    ClickRecord,
    EpsilonBudget,
    certify,
    format_counts,
    parse_counts,
    read_counts,
    total_epsilon,
    write_counts,
)
from siqrng.qubit import PHYSICALITY_TOL

from conftest import QubitTomogram, coherence_rel_entropy, random_tomogram_array

PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def entropy_bits(probs) -> float:
    return -sum(v * math.log2(v) for v in probs if v > 1e-15)

counts_strategy = st.builds(
    BasisCounts,
    n0=st.integers(min_value=0, max_value=10**6),
    n1=st.integers(min_value=0, max_value=10**6),
    nd=st.integers(min_value=0, max_value=10**6),
)

BUDGET = EpsilonBudget.uniform()
BALANCED = (450, 450, 100)
Z_COUNTS = (4500, 4500, 1000)
# X and Y counts (equal in both bases) whose adjusted Bloch radius is 1 + 2e-9
# and 1 + 5e-10, either side of PHYSICALITY_TOL, with Z balanced as EDGE_Z
PHYSICALITY_EDGE_COUNTS = ((8.5355339164e19, 1.4644660836e19, 0), (8.5355339111e19, 1.4644660889e19, 0))
EDGE_Z = (5e19, 5e19, 0)


def cert_of(x=BALANCED, y=BALANCED, z=Z_COUNTS, budget=BUDGET, policy="discard", n_pulses=1e12):
    """Certificate of one run; each test varies the basis it is about."""
    return certify(x, y, z, n_pulses, budget, policy)


def budget_x(eps_x: float) -> EpsilonBudget:
    return EpsilonBudget(1e-10, 1e-10, eps_x, 1e-10, 1e-10)


def both_backends(x=BALANCED, y=BALANCED, z=Z_COUNTS, n_pulses=1e12, policy="discard", budget=BUDGET):
    """The certificate from plain numbers (math backend) and from 1-element arrays (numpy)."""
    scalar = certify(x, y, z, n_pulses, budget, policy)
    arrays = [tuple(np.array([c], dtype=float) for c in triple) for triple in (x, y, z)]
    return scalar, certify(*arrays, n_pulses, budget, policy)


@st.composite
def state_runs(draw):
    """(x, y, z) click counts of a run on a random qubit state, 3e2 to 1e6 clicks and up to 5% doubles per basis."""
    x = draw(st.floats(-1.0, 1.0))
    y = draw(st.floats(-1.0, 1.0)) * math.sqrt(1.0 - x * x)
    z = draw(st.floats(-1.0, 1.0)) * math.sqrt(max(1.0 - x * x - y * y, 0.0))
    counts = []
    for v in (x, y, z):
        n = draw(st.integers(300, 10**6))
        nd = draw(st.integers(0, n // 20))
        n0 = round((n - nd) * (1.0 + v) / 2.0)
        counts.append((n0, n - nd - n0, nd))
    return tuple(counts)


def binary_entropy_grid(p: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.nan_to_num(-p * np.log2(p) - (1.0 - p) * np.log2(1.0 - p))


def min_physical_coherence(counts, budget=BUDGET) -> float:
    """Brute force: the least coherence over a grid of the squashed intervals widened by theta, physical points only.

    Each axis holds 41 points from lower - theta to upper + theta, clipped to [0, 1], plus 1/2 when it lies
    inside; the point of the box closest to 1/2, which certify takes, is then always on the grid.
    """
    axes = []
    for name, (n0, n1, nd) in zip("xyz", counts):
        n = n0 + n1 + nd
        theta = math.sqrt(math.log(1.0 / getattr(budget, f"eps_{name}")) / (2.0 * n))
        low, high = max(n0 / n - theta, 0.0), min((n0 + nd) / n + theta, 1.0)
        axis = np.linspace(low, high, 41)
        axes.append(np.append(axis, 0.5) if low <= 0.5 <= high else axis)
    p_x, p_y, p_z = np.meshgrid(*axes, indexing="ij", sparse=True)
    radius = np.sqrt((2.0 * p_x - 1.0) ** 2 + (2.0 * p_y - 1.0) ** 2 + (2.0 * p_z - 1.0) ** 2)
    coherence = binary_entropy_grid(p_z) - binary_entropy_grid((1.0 + radius) / 2.0)
    return float(coherence[radius <= 1.0].min(initial=math.inf))


def flip(counts):
    return tuple((n1, n0, nd) for n0, n1, nd in counts)


def clicks(counts) -> int:
    return sum(sum(triple) for triple in counts)


class TestSquash:
    def test_frozen_example(self):
        b = cert_of(x=(900, 50, 50)).x
        assert b.lower == pytest.approx(0.90, abs=1e-15)
        assert b.upper == pytest.approx(0.95, abs=1e-15)

    def test_no_doubles_degenerates(self):
        b = cert_of(x=(30, 70, 0)).x
        assert b.lower == b.upper == pytest.approx(0.3, abs=1e-15)

    def test_all_doubles_is_uninformative(self):
        b = cert_of(x=(0, 0, 100)).x
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_empty_basis_rejected(self):
        # X and Z alone would certify; an empty Y basis must still certify nothing
        for cert in both_backends(x=(9e6, 5e5, 5e5), y=(0, 0, 0), z=(4.5e7, 4.5e7, 1e7), n_pulses=2e8):
            assert cert.status == "no_clicks"
            assert cert.net_bits == 0.0
            assert np.isnan(cert.coherence)  # the entropy of an undefined state is not 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            BasisCounts(-1, 0, 0)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cert_of(x=(-1, 0, 0))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            BasisCounts(900, 50, value)
        with pytest.raises(ValueError, match="finite and nonnegative"):
            cert_of(x=(900, 50, value))

    def test_infinite_array_count_is_named_by_the_count_check(self):
        # the numpy backend's count check must name an infinite count, not leave it to the clicks-vs-pulses check
        x = (np.array([math.inf]), 50, 50)
        with pytest.raises(ValueError, match=r"^basis X: counts must be finite and nonnegative$"):
            certify(x, (450, 450, 100), (4500, 4500, 1000), 1e12, BUDGET)

    @given(counts_strategy)
    def test_interval_width_is_double_fraction(self, counts):
        if counts.n == 0:
            return
        b = cert_of(x=counts).x
        assert 0.0 <= b.lower <= b.upper <= 1.0
        assert b.upper - b.lower == pytest.approx(counts.nd / counts.n, abs=1e-12)

    def test_record_level(self):
        record = ClickRecord(
            x=BasisCounts(900, 50, 50), y=BasisCounts(30, 70, 0), z=BasisCounts(0, 0, 100)
        )
        cert = certify(record.x, record.y, record.z, 1e6, BUDGET)
        assert cert.x.lower == pytest.approx(0.9)
        assert cert.y.upper == pytest.approx(0.3)
        assert cert.z.upper == 1.0


class TestWorstCase:
    def test_above_half(self):
        b = cert_of(x=(900, 50, 50)).x
        assert (b.worst, b.flipped) == (0.90, False)

    def test_below_half_flips(self):
        b = cert_of(x=(400, 550, 50)).x  # interval [0.40, 0.45]
        assert b.worst == pytest.approx(0.55, abs=1e-15)
        assert b.flipped

    def test_straddling_floors(self):
        b = cert_of(x=(450, 400, 150)).x  # interval [0.45, 0.60]
        assert (b.worst, b.flipped) == (0.5, False)

    def test_invalid_interval(self):
        # [0.7, 0.3] needs a negative double-click count
        with pytest.raises(ValueError):
            cert_of(x=(700, 700, -400))

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_result_in_flipped_interval(self, a, b):
        lower, upper = min(a, b), max(a, b)
        est = cert_of(x=(lower, 1.0 - upper, upper - lower)).x
        assert 0.5 <= est.worst <= 1.0
        lower, upper = est.lower, est.upper
        if est.flipped:
            lower, upper = 1.0 - upper, 1.0 - lower
        assert lower - 1e-12 <= est.worst <= upper + 1e-12

    @given(counts_strategy)
    def test_flip_involution(self, counts):
        if counts.n == 0:
            return
        assert cert_of(x=counts).x == cert_of(x=flip(flip([counts]))[0]).x

    @given(counts_strategy)
    def test_flip_preserves_worst_case_value(self, counts):
        # relabeling the detectors cannot change the certified probability
        if counts.n == 0:
            return
        p_orig = cert_of(x=counts).x.worst
        p_flip = cert_of(x=flip([counts])[0]).x.worst
        assert p_orig == pytest.approx(p_flip, abs=1e-12)


class TestHoeffding:
    def test_frozen_example(self):
        theta = cert_of(x=(9e7, 5e6, 5e6)).x.theta
        assert theta == pytest.approx(0.0003393070212207556, rel=1e-12)
        assert theta == pytest.approx(3.3931e-4, abs=1e-8)

    def test_exact_inversion_point(self):
        assert cert_of(x=(1, 0, 0), budget=budget_x(math.exp(-2.0))).x.theta == pytest.approx(1.0, rel=1e-14)

    def test_vanishes_with_data(self):
        assert cert_of(x=(1e18, 0, 0), n_pulses=1e19).x.theta < 1e-8

    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-12, max_value=0.999),
    )
    def test_inversion_identity(self, n, eps):
        theta = cert_of(x=(n, 0, 0), budget=budget_x(eps)).x.theta
        assert math.exp(-2.0 * theta**2 * n) == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("n,eps", [(0, 0.5), (-5, 0.5), (10, 0.0), (10, 1.0)])
    def test_domain(self, n, eps):
        if n == 0:  # an empty basis is a cell status, not an error
            assert cert_of(x=(0, 0, 0), budget=budget_x(eps)).status == "no_clicks"
            return
        with pytest.raises(ValueError):
            cert_of(x=(n, 0, 0), budget=budget_x(eps))


class TestFluctuationAdjust:
    def test_subtraction(self):
        b = cert_of(x=(9e7, 5e6, 5e6)).x
        assert b.adjusted == pytest.approx(0.90 - 0.0003393070212207556, abs=1e-15)
        assert b.adjusted == pytest.approx(0.8996607, abs=1e-7)

    def test_floor_engages(self):
        b = cert_of(x=(5001, 4999, 0)).x  # worst 0.5001, theta 0.034
        assert b.worst == pytest.approx(0.5001, abs=1e-15)
        assert b.adjusted == 0.5

    def test_zero_theta(self):
        # as theta vanishes the adjusted value is the worst case itself
        b = cert_of(x=(7.7e29, 2.3e29, 0), n_pulses=1e31).x
        assert b.theta < 1e-14
        assert b.adjusted == pytest.approx(0.77, abs=1e-14)

    @given(counts_strategy)
    def test_domain(self, counts):
        if counts.n == 0:
            return
        b = cert_of(x=counts).x
        assert 0.5 <= b.adjusted <= b.worst <= 1.0
        assert b.theta > 0.0
        assert b.adjusted == max(b.worst - b.theta, 0.5)


class TestAssignment:
    def test_frozen_example(self):
        p_a = cert_of(z=(450, 450, 100), policy="assign").assignment_prob
        assert p_a == pytest.approx(0.5, abs=1e-15)

    def test_lower_end(self):
        # worst case 0.55 is the interval's lower end: every double click goes to 1
        assert cert_of(z=(550, 350, 100), policy="assign").assignment_prob == pytest.approx(0.0, abs=1e-12)

    def test_upper_end(self):
        # interval [0.4, 0.5]: worst case 1/2 is its upper end
        assert cert_of(z=(400, 500, 100), policy="assign").assignment_prob == pytest.approx(1.0, abs=1e-12)

    def test_incompatible_rejected(self):
        # the worst case lies in the (relabeled) interval, so the assigned data
        # always reproduce it with a rate in [0, 1]
        for counts in [(450, 450, 100), (100, 800, 100), (550, 350, 100), (0, 60, 100), (3, 1, 7)]:
            cert = cert_of(z=counts, policy="assign")
            n0, n1, nd = counts
            kept = n1 if cert.z.flipped else n0
            assert 0.0 <= cert.assignment_prob <= 1.0
            assert kept + cert.assignment_prob * nd == pytest.approx(cert.z.worst * sum(counts), rel=1e-12)

    def test_no_doubles_cases(self):
        assert cert_of(z=(600, 400, 0), policy="assign").assignment_prob == 0.0
        assert cert_of(z=(400, 600, 0), policy="assign").assignment_prob == 0.0

    def test_costs(self):
        def cost(z):
            return cert_of(z=z, policy="assign").double_click_cost

        assert cost((550, 350, 100)) == 0.0  # p_a = 0
        assert cost((400, 500, 100)) == 0.0  # p_a = 1
        assert cost((0, 0, 100)) == pytest.approx(100.0)  # p_a = 0.5
        assert cost((0, 60, 100)) == pytest.approx(72.19280948873623, rel=1e-12)  # p_a = 0.8

    def test_discard_cost(self):
        cert = cert_of(z=(450, 450, 100))
        assert cert.double_click_cost == 100
        assert cert.surviving_raw_bits == 900
        assert cert.assignment_prob is None
        cert = cert_of(z=(450, 450, 0))
        assert cert.double_click_cost == 0
        assert cert.surviving_raw_bits == 900

    @given(counts_strategy)
    def test_discard_never_cheaper_to_keep(self, counts):
        # discarding pays one full bit per double click, assignment at most that
        if counts.n == 0:
            return
        discard_cost = cert_of(z=counts).double_click_cost
        assign_cost = cert_of(z=counts, policy="assign").double_click_cost
        assert discard_cost >= assign_cost - 1e-9


class TestCertify:
    def test_nonphysical_tomogram_certifies_nothing(self):
        # every basis fully polarized: Bloch radius 1.72
        perfect = (1e6, 0, 0)
        for policy in ("discard", "assign"):
            for cert in both_backends(perfect, perfect, perfect, n_pulses=1e7, policy=policy):
                assert cert.status == "nonphysical"
                assert cert.radius == pytest.approx(1.72029686757, rel=1e-10)
                assert cert.net_bits == 0.0 and cert.rate_per_pulse == 0.0

    @pytest.mark.parametrize("policy", ["discard", "assign"])
    def test_physicality_tolerance_boundary(self, policy):
        # at 1e20 clicks per basis theta is 3.4e-10, so the adjusted radius sits where the counts put it
        beyond, within = PHYSICALITY_EDGE_COUNTS
        for cert in both_backends(beyond, beyond, EDGE_Z, n_pulses=1e21, policy=policy):
            assert cert.radius - 1.0 == pytest.approx(2e-9, abs=1e-10)
            assert cert.status == "nonphysical"
            assert cert.net_bits == 0.0
        for cert in both_backends(within, within, EDGE_Z, n_pulses=1e21, policy=policy):
            assert cert.radius - 1.0 == pytest.approx(5e-10, abs=1e-10)
            assert cert.status == "ok"
            assert cert.coherence == 1.0  # h(1/2) - h((1 + min(r, 1)) / 2): the radius is clamped
            assert cert.net_bits > 0.0

    def test_below_floor_certifies_nothing(self):
        for cert in both_backends((900, 50, 50), BALANCED, (40, 40, 10), n_pulses=12000):
            assert cert.status == "below_floor"
            assert cert.n_z == 90
            assert cert.net_bits == 0.0

    def test_statuses_are_cells(self):
        cells = {  # (x, y, z) counts of one run each, certified in one array call
            "no_positive_rate": ((900, 50, 50), BALANCED, Z_COUNTS),
            "no_clicks": ((900, 50, 50), (0, 0, 0), Z_COUNTS),
            "nonphysical": ((1e6, 0, 0), (1e6, 0, 0), (1e6, 0, 0)),
            "below_floor": ((900, 50, 50), BALANCED, (40, 40, 10)),
            "ok": ((9e6, 5e5, 5e5), (4.5e6, 4.5e6, 1e6), (4.5e7, 4.5e7, 1e7)),
        }
        x, y, z = (tuple(np.array([run[b][k] for run in cells.values()]) for k in range(3)) for b in range(3))
        cert = certify(x, y, z, 2e8, BUDGET)
        assert cert.status.tolist() == list(cells) and set(cells) == set(STATUSES)
        assert (cert.net_bits > 0).tolist() == [False, False, False, False, True]
        assert cert.rate_per_pulse[-1] == cert.net_bits[-1] / 2e8

    @given(counts_strategy, counts_strategy, counts_strategy)
    def test_coherence_is_the_tomogram_formula(self, x, y, z):
        cert = cert_of(x, y, z)
        if cert.status in ("no_clicks", "nonphysical"):
            return
        tomogram = QubitTomogram(cert.x.adjusted, cert.y.adjusted, cert.z.adjusted)
        assert cert.radius == tomogram.bloch_norm
        assert cert.coherence == coherence_rel_entropy(tomogram)

    @given(counts_strategy, counts_strategy, counts_strategy, st.sampled_from(["math", "numpy"]))
    def test_coherence_matches_eigenvalue_oracle(self, x, y, z, backend):
        # independent of the closed form: C = S(diag rho) - S(rho), rho = (I + r.sigma) / 2
        if backend == "numpy":
            x, y, z = (tuple(np.array([c], dtype=float) for c in counts) for counts in (x, y, z))
        cert = cert_of(x, y, z)
        bloch = [2.0 * np.asarray(b.adjusted).item() - 1.0 for b in (cert.x, cert.y, cert.z)]
        if math.isnan(sum(bloch)):  # a basis without clicks
            return
        rho = (np.eye(2) + sum(r * s for r, s in zip(bloch, PAULI))) / 2.0
        eigs = np.linalg.eigvalsh(rho)
        # the smaller eigenvalue is (1 - radius) / 2
        assert bool(np.all(cert.physical)) == (eigs[0] >= -PHYSICALITY_TOL / 2.0)
        if not eigs[0] >= -PHYSICALITY_TOL / 2.0:
            return
        expected = entropy_bits(np.diag(rho).real) - entropy_bits(eigs)
        assert np.asarray(cert.coherence).item() == pytest.approx(expected, abs=1e-9)

    @pytest.mark.parametrize("bad", ["n_pulses", "policy"])
    def test_run_level_inputs_refused(self, bad):
        with pytest.raises(ValueError):
            if bad == "n_pulses":
                cert_of(n_pulses=0.0)
            else:
                cert_of(policy="keep")

    def test_clicks_beyond_pulses_refused(self):
        # 102 million clicks cannot come from 1000 pulses; this used to certify 65 354 bits per pulse
        counts = ((950000, 25000, 25000), (480000, 480000, 40000), (48000000, 48000000, 4000000))
        message = "counts hold 102000000 clicks, more than the 1000 pulses"
        with pytest.raises(ValueError, match=f"^{message}$"):
            certify(*counts, 1000.0, BUDGET)
        # on arrays, one cell beyond the pulse count refuses the whole call
        cells = [tuple(np.array([c / 1e6, c]) for c in triple) for triple in counts]
        with pytest.raises(ValueError, match=f"^{message}$"):
            certify(*cells, 1000.0, BUDGET)
        for cert in both_backends(*counts, n_pulses=clicks(counts)):  # every pulse clicked: allowed
            assert cert.status == "ok"

    @given(
        entries=st.lists(st.integers(0, 9), min_size=1, max_size=3, unique=True),
        value=st.sampled_from([math.nan, math.inf, -math.inf]),
        backend=st.sampled_from(["math", "numpy"]),
    )
    def test_non_finite_input_never_certifies(self, entries, value, backend):
        counts = [list(BALANCED), [900, 50, 50], [45000, 45000, 10000]]
        n_pulses = 1e8
        for entry in entries:
            if entry == 9:
                n_pulses = value
            else:
                counts[entry // 3][entry % 3] = value
        if backend == "numpy":
            counts = [[np.array([c], dtype=float) for c in triple] for triple in counts]
        try:
            cert = certify(*counts, n_pulses, BUDGET, "discard")
        except ValueError:
            return
        assert np.all(cert.status != "ok")
        assert np.all(np.asarray(cert.net_bits) <= 0.0)


# about one run in six certifies a positive rate, so each property draws more runs than the profile's 100
PROPERTY_SETTINGS = settings(max_examples=200)


class TestSoundness:
    """Oracles and properties that tie certificates to the physics and to each other, on both backends."""

    def test_worst_case_is_the_brute_force_minimum(self):
        # C is nondecreasing in each |2p - 1|, so no physical point of the widened box has less coherence
        rng = np.random.default_rng(2017)
        checked = 0
        for p_x, p_y, p_z in random_tomogram_array(150, seed=11):
            counts = []
            for p in (p_x, p_y, p_z):
                n = int(10 ** rng.uniform(math.log10(300), 6))
                nd = int(rng.integers(0, n // 5 + 1))
                n0 = int(rng.binomial(n - nd, p))
                counts.append((n0, n - nd - n0, nd))
            for record in (tuple(counts), flip(counts)):
                oracle = min_physical_coherence(record)
                for cert in both_backends(*record, n_pulses=clicks(record)):
                    if np.all(cert.physical):
                        assert np.asarray(cert.coherence).item() <= oracle + 1e-12
                        checked += 1
        assert checked >= 500

    @PROPERTY_SETTINGS
    @given(state_runs(), st.sampled_from([f.name for f in dataclasses.fields(EpsilonBudget)]), st.floats(1e-6, 1.0))
    def test_smaller_epsilon_never_certifies_more(self, counts, field, shrink):
        tight = dataclasses.replace(BUDGET, **{field: getattr(BUDGET, field) * shrink})
        for policy in POLICIES:
            pairs = zip(both_backends(*counts, policy=policy), both_backends(*counts, policy=policy, budget=tight))
            for loose, strict in pairs:
                assert np.asarray(strict.net_bits).item() <= np.asarray(loose.net_bits).item() * (1.0 + 1e-12)

    @PROPERTY_SETTINGS
    @given(state_runs(), st.integers(0, 2))
    def test_one_more_discarded_double_click_never_certifies_more(self, counts, basis):
        more = list(counts)
        more[basis] = (counts[basis][0], counts[basis][1], counts[basis][2] + 1)
        for before, after in zip(both_backends(*counts), both_backends(*more)):
            assert np.asarray(after.net_bits).item() <= np.asarray(before.net_bits).item() * (1.0 + 1e-12)

    @PROPERTY_SETTINGS
    @given(state_runs())
    def test_relabeling_leaves_the_certificate(self, counts):
        x, y, z = counts
        relabeled = [(flip([x])[0], y, z), (x, flip([y])[0], z), (x, y, flip([z])[0]), (y, x, z)]
        for policy, moved in itertools.product(POLICIES, relabeled):
            for cert, other in zip(both_backends(*counts, policy=policy), both_backends(*moved, policy=policy)):
                for field, scale in (("radius", 1.0), ("coherence", 1.0), ("net_bits", sum(z))):
                    a, b = (np.asarray(getattr(c, field)).item() for c in (cert, other))
                    assert a == pytest.approx(b, rel=1e-12, abs=1e-12 * scale)

    @PROPERTY_SETTINGS
    @given(state_runs(), st.floats(1.0, 1e6))
    def test_pulse_count_changes_only_the_rate(self, counts, factor):
        n_pulses = clicks(counts)
        pairs = zip(both_backends(*counts, n_pulses=n_pulses), both_backends(*counts, n_pulses=n_pulses * factor))
        for fewer, more in pairs:
            for field in dataclasses.fields(Certificate):
                a, b = getattr(fewer, field.name), getattr(more, field.name)
                if field.name == "rate_per_pulse":
                    assert b == more.net_bits / (n_pulses * factor)
                    continue
                if field.name in ("x", "y", "z"):
                    a, b = astuple(a), astuple(b)
                assert np.array_equal(a, b)


class TestEpsilonBudget:
    def test_uniform_total(self):
        assert total_epsilon(EpsilonBudget.uniform()) == pytest.approx(5e-10, rel=1e-12)

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            EpsilonBudget(0.0, 0.1, 0.1, 0.1, 0.1)

    @pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(EpsilonBudget)])
    def test_each_component_is_checked(self, name):
        values = {f.name: 0.0 if f.name == name else 0.1 for f in dataclasses.fields(EpsilonBudget)}
        with pytest.raises(ValueError, match=f"^{name} must lie strictly in"):
            EpsilonBudget(**values)

    def test_field_names_are_the_dataclass_fields(self):
        # taken once at import, so a field added to EpsilonBudget must show up here, in order
        assert acquisition._BUDGET_FIELDS == tuple(f.name for f in dataclasses.fields(EpsilonBudget))

    def test_overbudget_rejected(self):
        with pytest.raises(ValueError):
            EpsilonBudget(0.3, 0.3, 0.2, 0.1, 0.2)


class TestCountsFormat:
    def test_round_trip(self, tmp_path):
        record = ClickRecord(
            x=BasisCounts(29639, 1193, 774),
            y=BasisCounts(11933, 11933, 7741),
            z=BasisCounts(214786, 214786, 139336),
        )
        path = tmp_path / "counts.txt"
        write_counts(path, record)
        assert read_counts(path) == record

    def test_comments_and_blanks(self):
        text = """
        # detector run 12
        X,900,50,50

        Y , 30, 70, 0
        Z,1,2,3
        """
        record = parse_counts(text)
        assert record.x == BasisCounts(900, 50, 50)
        assert record.y == BasisCounts(30, 70, 0)

    def test_fractional_counts_accepted(self):
        record = parse_counts("X,900.5,50,50\nY,1,1,0\nZ,2,2,1\n")
        assert record.x.n0 == pytest.approx(900.5)

    @pytest.mark.parametrize(
        "text",
        [
            "X,900,50,50\nY,1,1,0\n",  # missing Z
            "X,900,50\nY,1,1,0\nZ,2,2,1\n",  # short line
            "X,900,50,50\nX,1,1,0\nZ,2,2,1\n",  # duplicate
            "X,900,50,50\nY,1,1,0\nx,1,1,0\nZ,2,2,1\n",  # duplicate, every basis present
            "W,900,50,50\nY,1,1,0\nZ,2,2,1\n",  # unknown basis
            "X,900,50,50\nY,1,1,0\nZ,2,2,1\nW,1,1,1\n",  # unknown basis, every basis present
            "X,abc,50,50\nY,1,1,0\nZ,2,2,1\n",  # non-numeric
            "X,-1,50,50\nY,1,1,0\nZ,2,2,1\n",  # negative
        ],
    )
    def test_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_counts(text)

    def test_format_is_parseable(self):
        record = ClickRecord(
            x=BasisCounts(1, 2, 3), y=BasisCounts(4, 5, 6), z=BasisCounts(7, 8, 9)
        )
        assert parse_counts(format_counts(record)) == record

    @pytest.mark.parametrize(
        "record",
        [
            # counts of 1e6 and more: six significant digits would lose 54 of these Z clicks
            ClickRecord(
                x=BasisCounts(3769026, 0, 0),
                y=BasisCounts(1249363, 1249131, 1265885),
                z=BasisCounts(22499671, 22501750, 22806525),
            ),
            ClickRecord(
                x=BasisCounts(900.123456789, 1e6, 2.0**60),
                y=BasisCounts(1e300, 0.1, 1234567.5),
                z=BasisCounts(np.int64(22499671), np.float64(900.123456789), np.float64(1e7)),
            ),
        ],
    )
    def test_format_is_exact(self, record):
        assert parse_counts(format_counts(record)) == record
