import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from siqrng.acquisition import (
    BasisCounts,
    ClickRecord,
    EpsilonBudget,
    IncompatibleCountsError,
    NoBasisDataError,
    assignment_prob,
    double_click_cost_assignment,
    double_click_cost_discard,
    fluctuation_adjust,
    format_counts,
    hoeffding_theta,
    parse_counts,
    read_counts,
    squash_bounds,
    squash_interval,
    total_epsilon,
    worst_case_interval,
    worst_case_prob,
    write_counts,
)

counts_strategy = st.builds(
    BasisCounts,
    n0=st.integers(min_value=0, max_value=10**6),
    n1=st.integers(min_value=0, max_value=10**6),
    nd=st.integers(min_value=0, max_value=10**6),
)


def make_record(counts: BasisCounts) -> ClickRecord:
    return ClickRecord(x=counts, y=counts, z=counts)


class TestSquash:
    def test_frozen_example(self):
        b = squash_interval(BasisCounts(900, 50, 50))
        assert b.lower == pytest.approx(0.90, abs=1e-15)
        assert b.upper == pytest.approx(0.95, abs=1e-15)

    def test_no_doubles_degenerates(self):
        b = squash_interval(BasisCounts(30, 70, 0))
        assert b.lower == b.upper == pytest.approx(0.3, abs=1e-15)

    def test_all_doubles_is_uninformative(self):
        b = squash_interval(BasisCounts(0, 0, 100))
        assert (b.lower, b.upper) == (0.0, 1.0)

    def test_empty_basis_rejected(self):
        with pytest.raises(NoBasisDataError):
            squash_interval(BasisCounts(0, 0, 0), "y")

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            BasisCounts(-1, 0, 0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_counts_rejected(self, value):
        with pytest.raises(ValueError, match="finite and nonnegative"):
            BasisCounts(900, 50, value)

    @given(counts_strategy)
    def test_interval_width_is_double_fraction(self, counts):
        if counts.n == 0:
            return
        b = squash_interval(counts)
        assert 0.0 <= b.lower <= b.upper <= 1.0
        assert b.upper - b.lower == pytest.approx(counts.nd / counts.n, abs=1e-12)

    def test_record_level(self):
        record = ClickRecord(
            x=BasisCounts(900, 50, 50), y=BasisCounts(30, 70, 0), z=BasisCounts(0, 0, 100)
        )
        bounds = squash_bounds(record)
        assert bounds.x.lower == pytest.approx(0.9)
        assert bounds.y.upper == pytest.approx(0.3)
        assert bounds.z.upper == 1.0


class TestWorstCase:
    def test_above_half(self):
        assert worst_case_interval(0.90, 0.95) == (0.90, False)

    def test_below_half_flips(self):
        p_w, flipped = worst_case_interval(0.40, 0.45)
        assert p_w == pytest.approx(0.55, abs=1e-15)
        assert flipped

    def test_straddling_floors(self):
        assert worst_case_interval(0.45, 0.60) == (0.5, False)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            worst_case_interval(0.7, 0.3)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_result_in_flipped_interval(self, a, b):
        lower, upper = min(a, b), max(a, b)
        p_w, flipped = worst_case_interval(lower, upper)
        assert 0.5 <= p_w <= 1.0
        if flipped:
            lower, upper = 1.0 - upper, 1.0 - lower
        assert lower - 1e-12 <= p_w <= upper + 1e-12

    @given(counts_strategy)
    def test_flip_involution(self, counts):
        if counts.n == 0:
            return
        assert counts.flipped().flipped() == counts
        original = worst_case_prob(squash_bounds(make_record(counts)), "x")
        double_flip = worst_case_prob(
            squash_bounds(make_record(counts.flipped().flipped())), "x"
        )
        assert original == double_flip

    @given(counts_strategy)
    def test_flip_preserves_worst_case_value(self, counts):
        # relabeling the detectors cannot change the certified probability
        if counts.n == 0:
            return
        p_orig, _ = worst_case_prob(squash_bounds(make_record(counts)), "x")
        p_flip, _ = worst_case_prob(squash_bounds(make_record(counts.flipped())), "x")
        assert p_orig == pytest.approx(p_flip, abs=1e-12)


class TestHoeffding:
    def test_frozen_example(self):
        theta = hoeffding_theta(1e8, 1e-10)
        assert theta == pytest.approx(0.0003393070212207556, rel=1e-12)
        assert theta == pytest.approx(3.3931e-4, abs=1e-8)

    def test_exact_inversion_point(self):
        assert hoeffding_theta(1, math.exp(-2.0)) == pytest.approx(1.0, rel=1e-14)

    def test_vanishes_with_data(self):
        assert hoeffding_theta(1e18, 1e-10) < 1e-8

    @given(
        st.floats(min_value=1.0, max_value=1e12),
        st.floats(min_value=1e-12, max_value=0.999),
    )
    def test_inversion_identity(self, n, eps):
        theta = hoeffding_theta(n, eps)
        assert math.exp(-2.0 * theta**2 * n) == pytest.approx(eps, rel=1e-12)

    @pytest.mark.parametrize("n,eps", [(0, 0.5), (-5, 0.5), (10, 0.0), (10, 1.0)])
    def test_domain(self, n, eps):
        with pytest.raises(ValueError):
            hoeffding_theta(n, eps)


class TestFluctuationAdjust:
    def test_subtraction(self):
        assert fluctuation_adjust(0.90, 0.0003393) == pytest.approx(0.8996607, abs=1e-12)

    def test_floor_engages(self):
        assert fluctuation_adjust(0.5001, 0.01) == 0.5

    def test_zero_theta(self):
        assert fluctuation_adjust(0.77, 0.0) == 0.77

    def test_domain(self):
        with pytest.raises(ValueError):
            fluctuation_adjust(0.3, 0.01)
        with pytest.raises(ValueError):
            fluctuation_adjust(0.7, -0.01)


class TestAssignment:
    def test_frozen_example(self):
        p_a = assignment_prob(0.5, BasisCounts(450, 450, 100))
        assert p_a == pytest.approx(0.5, abs=1e-15)

    def test_lower_end(self):
        counts = BasisCounts(450, 450, 100)
        assert assignment_prob(450 / 1000, counts) == pytest.approx(0.0, abs=1e-12)

    def test_upper_end(self):
        counts = BasisCounts(450, 450, 100)
        assert assignment_prob(550 / 1000, counts) == pytest.approx(1.0, abs=1e-12)

    def test_incompatible_rejected(self):
        counts = BasisCounts(450, 450, 100)
        with pytest.raises(IncompatibleCountsError):
            assignment_prob(0.60, counts)
        with pytest.raises(IncompatibleCountsError):
            assignment_prob(0.40, counts)

    def test_no_doubles_cases(self):
        counts = BasisCounts(600, 400, 0)
        assert assignment_prob(0.6, counts) == 0.0
        with pytest.raises(IncompatibleCountsError):
            assignment_prob(0.65, counts)

    def test_costs(self):
        counts = BasisCounts(0, 0, 100)
        assert double_click_cost_assignment(counts, 0.0) == 0.0
        assert double_click_cost_assignment(counts, 1.0) == 0.0
        assert double_click_cost_assignment(counts, 0.5) == pytest.approx(100.0)
        assert double_click_cost_assignment(counts, 0.8) == pytest.approx(
            72.19280948873623, rel=1e-12
        )

    def test_discard_cost(self):
        cost, surviving = double_click_cost_discard(BasisCounts(450, 450, 100))
        assert cost == 100
        assert surviving == 900
        cost, surviving = double_click_cost_discard(BasisCounts(450, 450, 0))
        assert cost == 0
        assert surviving == 900

    @given(
        counts_strategy,
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_discard_never_cheaper_to_keep(self, counts, p_a):
        # discarding pays one full bit per double click, assignment at most that
        discard_cost, _ = double_click_cost_discard(counts)
        assign_cost = double_click_cost_assignment(counts, p_a)
        assert discard_cost >= assign_cost - 1e-9


class TestEpsilonBudget:
    def test_uniform_total(self):
        assert total_epsilon(EpsilonBudget.uniform()) == pytest.approx(5e-10, rel=1e-12)

    def test_zero_component_rejected(self):
        with pytest.raises(ValueError):
            EpsilonBudget(0.0, 0.1, 0.1, 0.1, 0.1)

    def test_overbudget_rejected(self):
        with pytest.raises(ValueError):
            EpsilonBudget(0.3, 0.3, 0.2, 0.1, 0.2)

    def test_basis_lookup(self):
        budget = EpsilonBudget(0.1, 0.01, 0.001, 0.0001, 0.00001)
        assert budget.for_basis("x") == 0.001
        assert budget.for_basis("Y") == 0.0001
        assert budget.for_basis("z") == 0.00001
        with pytest.raises(ValueError):
            budget.for_basis("w")


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
            "W,900,50,50\nY,1,1,0\nZ,2,2,1\n",  # unknown basis
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
