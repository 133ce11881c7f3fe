import math

import numpy as np
import pytest

from siqrng.acquisition import (
    EpsilonBudget,
    assignment_prob,
    double_click_cost_assignment,
    double_click_cost_discard,
    squash_bounds,
    worst_case_prob,
)
from siqrng.bounds import finite_size_floor, min_entropy_bound
from siqrng.detector import ExperimentConfig, analytic_click_stats, simulated_worst_probs
from siqrng.optimizer import (
    DEFAULT_MU_GRID,
    DEFAULT_Q_GRID,
    OptimizationResult,
    optimize,
    rate_objective,
    rate_surface,
)
from siqrng.qubit import QubitTomogram, coherence_rel_entropy

BUDGET = EpsilonBudget.uniform()


def scalar_rate(config: ExperimentConfig, budget: EpsilonBudget, policy: str) -> float:
    """Reference rate via the scalar pipeline, for checking the vectorized surface."""
    stats = analytic_click_stats(config)
    if stats.x.n <= 0 or stats.z.n < finite_size_floor(budget.eps1):
        return 0.0
    probs = simulated_worst_probs(config, budget)
    coherence = coherence_rel_entropy(QubitTomogram(probs.p_x, probs.p_y, probs.p_z))
    bound = min_entropy_bound(stats.z.n, coherence, budget.eps1)
    if policy == "discard":
        cost, _ = double_click_cost_discard(stats.z)
    else:
        p_w_z, flipped = worst_case_prob(squash_bounds(stats.record()), "z")
        counts_z = stats.z.flipped() if flipped else stats.z
        cost = double_click_cost_assignment(counts_z, assignment_prob(p_w_z, counts_z))
    return max(0.0, bound - cost) / config.n_pulses


class TestRateSurface:
    def test_matches_scalar_pipeline(self):
        mus = np.array([0.2, 0.5, 0.95, 1.4, 3.0])
        qs = np.array([0.005, 0.05, 0.2, 0.45])
        for n_pulses in (1e5, 1e10):
            for p_mix in (0.0, 0.1, 0.3):
                for policy in ("discard", "assign"):
                    surface = rate_surface(n_pulses, p_mix, mus, qs, BUDGET, policy)
                    for i, mu in enumerate(mus):
                        for j, q in enumerate(qs):
                            config = ExperimentConfig(
                                n_pulses=n_pulses, q=q, mu0=mu, eta=1.0, p_mix=p_mix
                            )
                            expected = scalar_rate(config, BUDGET, policy)
                            assert surface[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_policies_agree_on_this_source(self):
        # the depolarized source splits Z doubles evenly, so assigning them
        # costs one full bit each, the same as discarding them
        mus = np.array([0.5, 1.0, 2.0])
        qs = np.array([0.01, 0.1])
        discard = rate_surface(1e9, 0.2, mus, qs, BUDGET, "discard")
        assign = rate_surface(1e9, 0.2, mus, qs, BUDGET, "assign")
        assert np.allclose(discard, assign, atol=1e-12)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            rate_surface(1e8, 0.1, np.array([0.0, 1.0]), np.array([0.1]), BUDGET)
        with pytest.raises(ValueError):
            rate_surface(1e8, 0.1, np.array([6.0]), np.array([0.1]), BUDGET)
        with pytest.raises(ValueError):
            rate_surface(1e8, 0.1, np.array([1.0]), np.array([0.5]), BUDGET)
        with pytest.raises(ValueError):
            rate_surface(1e8, 0.1, np.array([]), np.array([0.1]), BUDGET)
        with pytest.raises(ValueError):
            rate_surface(1e8, 0.1, np.array([1.0]), np.array([0.1]), BUDGET, policy="keep")

    def test_zero_below_finite_size_floor(self):
        # 200 pulses cannot clear the floor of 108 Z clicks at eps1 = 1e-10
        surface = rate_surface(200, 0.0, np.array([1.0]), np.array([0.25]), BUDGET)
        assert surface[0, 0] == 0.0

    def test_unimodal_along_mu(self):
        for p_mix, q in ((0.0, 0.01), (0.1, 0.01), (0.3, 0.1)):
            rates = rate_surface(1e8, p_mix, DEFAULT_MU_GRID, np.array([q]), BUDGET)[:, 0]
            for i in range(1, rates.size - 1):
                dip = rates[i] < rates[i - 1] - 1e-12 and rates[i] < rates[i + 1] - 1e-12
                assert not dip, f"local minimum at mu={DEFAULT_MU_GRID[i]}"


class TestRateObjective:
    def test_single_point(self):
        config = ExperimentConfig(n_pulses=1e10, q=0.005, mu0=0.95, eta=1.0, p_mix=0.1)
        assert rate_objective(config, BUDGET) == pytest.approx(
            scalar_rate(config, BUDGET, "discard"), rel=1e-12
        )

    def test_detected_intensity_drives_statistics(self):
        # only mu = eta * mu0 matters for the rate
        a = ExperimentConfig(n_pulses=1e8, q=0.02, mu0=1.0, eta=0.5, p_mix=0.1)
        b = ExperimentConfig(n_pulses=1e8, q=0.02, mu0=0.5, eta=1.0, p_mix=0.1)
        assert rate_objective(a, BUDGET) == pytest.approx(rate_objective(b, BUDGET), rel=1e-12)

    def test_tiny_intensity_certifies_nothing(self):
        config = ExperimentConfig(n_pulses=1e10, q=0.005, mu0=1e-4, eta=1.0, p_mix=0.1)
        assert rate_objective(config, BUDGET) == pytest.approx(0.0, abs=1e-4)


class TestOptimize:
    def test_picks_grid_argmax_without_refinement(self):
        mus = np.array([0.7, 0.9, 1.1])
        qs = np.array([0.01, 0.02])
        result = optimize(1e8, 0.1, BUDGET, mu_grid=mus, q_grid=qs, refine_levels=0)
        surface = rate_surface(1e8, 0.1, mus, qs, BUDGET)
        i, j = np.unravel_index(np.argmax(surface), surface.shape)
        assert result.mu_opt == mus[i]
        assert result.q_opt == qs[j]
        assert result.rate_opt == pytest.approx(surface[i, j], rel=1e-12)
        assert result.evaluations == surface.size

    def test_refinement_never_hurts(self):
        coarse = optimize(1e7, 0.1, BUDGET, refine_levels=0)
        refined = optimize(1e7, 0.1, BUDGET, refine_levels=3)
        assert refined.rate_opt >= coarse.rate_opt - 1e-15

    def test_deterministic(self):
        a = optimize(1e6, 0.2, BUDGET)
        b = optimize(1e6, 0.2, BUDGET)
        assert (a.mu_opt, a.q_opt, a.rate_opt) == (b.mu_opt, b.q_opt, b.rate_opt)
        assert np.array_equal(a.trace, b.trace)

    def test_result_consistent_with_trace(self):
        result = optimize(1e6, 0.1, BUDGET)
        assert result.rate_opt >= result.trace[:, 2].max() - 1e-12
        config = ExperimentConfig(
            n_pulses=1e6, q=result.q_opt, mu0=result.mu_opt, eta=1.0, p_mix=0.1
        )
        assert result.rate_opt == pytest.approx(rate_objective(config, BUDGET), rel=1e-12)
        assert result.status == "ok"
        assert result.positive

    def test_no_positive_rate(self):
        result = optimize(1e4, 0.1, BUDGET)
        assert result.rate_opt == 0.0
        assert not result.positive
        assert result.status == "no positive rate"
        # no cell certifies anything, so there is no optimum to report
        assert math.isnan(result.mu_opt)
        assert math.isnan(result.q_opt)
        assert np.all(result.trace[:, 2] == 0.0)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            optimize(1e8, 0.1, BUDGET, refine_levels=-1)
        with pytest.raises(ValueError):
            optimize(1e8, 0.1, BUDGET, mu_grid=np.array([[1.0]]))
        with pytest.raises(ValueError):
            optimize(1e8, 0.1, BUDGET, policy="other")

    @pytest.mark.parametrize(
        "n_pulses,p_mix",
        [(1e8, float("nan")), (1e8, 1.5), (1e8, -0.1), (float("nan"), 0.1), (float("inf"), 0.1), (0.0, 0.1)],
    )
    def test_source_validation(self, n_pulses, p_mix):
        # a NaN p_mix reaching the entropy kernel certifies more than a noiseless source
        with pytest.raises(ValueError):
            optimize(n_pulses, p_mix, BUDGET)
        with pytest.raises(ValueError):
            rate_surface(n_pulses, p_mix, np.array([1.4]), np.array([0.01]), BUDGET)

    def test_trace_is_replayable(self):
        result = optimize(1e7, 0.0, BUDGET, refine_levels=1)
        assert isinstance(result, OptimizationResult)
        sample = result.trace[:: max(1, result.trace.shape[0] // 7)]
        for mu, q, rate in sample:
            config = ExperimentConfig(n_pulses=1e7, q=q, mu0=mu, eta=1.0, p_mix=0.0)
            assert rate == pytest.approx(rate_objective(config, BUDGET), rel=1e-12, abs=1e-15)
