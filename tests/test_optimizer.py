import math
import time
import tracemalloc

import numpy as np
import pytest

from siqrng import optimizer
from siqrng.acquisition import POLICIES, EpsilonBudget, certify
from siqrng.detector import ExperimentConfig, analytic_click_stats, expected_counts
from siqrng.optimizer import (
    DEFAULT_MU_GRID,
    DEFAULT_Q_GRID,
    OptimizationResult,
    optimize,
    rate_surface,
)

BUDGET = EpsilonBudget.uniform()
GRID_MUS = np.array([0.2, 0.5, 0.95, 1.4, 3.0])
GRID_QS = np.array([0.005, 0.05, 0.2, 0.45])


def config_rate(config: ExperimentConfig, policy: str = "discard") -> float:
    """Rate of one configuration: its expected counts certified as plain numbers (math backend)."""
    stats = analytic_click_stats(config)
    return certify(stats.x, stats.y, stats.z, config.n_pulses, BUDGET, policy).rate_per_pulse


def search_without_stop(n_pulses: float, p_mix: float, policy: str, levels: int):
    """Trace, best (-rate, mu, q) and each level's end row of optimize's refinement on the default grids,
    run through every level."""
    mu_axis, q_axis = DEFAULT_MU_GRID, DEFAULT_Q_GRID
    step_mu, step_q = float(np.min(np.diff(mu_axis))), float(np.min(np.diff(q_axis)))
    rows, best, ends = [], [], []
    for level in range(levels + 1):
        if level:
            _, mu, q = min(best)
            mu_axis = optimizer._refine_axis(mu, step_mu, optimizer.MU_BOX)
            q_axis = optimizer._refine_axis(q, step_q, optimizer.Q_BOX)
            step_mu, step_q = step_mu / 10.0, step_q / 10.0
        surface = rate_surface(n_pulses, p_mix, mu_axis, q_axis, BUDGET, policy)
        rows += [(mu, q, rate) for mu, row in zip(mu_axis, surface) for q, rate in zip(q_axis, row)]
        ends.append(len(rows))
        i, j = divmod(int(np.argmax(surface)), q_axis.size)
        best.append((-float(surface[i, j]), float(mu_axis[i]), float(q_axis[j])))
    return np.array(rows), min(best), ends


class TestRateSurface:
    def test_matches_scalar_pipeline(self):
        for n_pulses in (1e5, 1e10):
            for p_mix in (0.0, 0.1, 0.3):
                for policy in ("discard", "assign"):
                    surface = rate_surface(n_pulses, p_mix, GRID_MUS, GRID_QS, BUDGET, policy)
                    for i, mu in enumerate(GRID_MUS):
                        for j, q in enumerate(GRID_QS):
                            config = ExperimentConfig(
                                n_pulses=n_pulses, q=q, mu0=mu, eta=1.0, p_mix=p_mix
                            )
                            expected = config_rate(config, policy)
                            assert surface[i, j] == pytest.approx(expected, rel=1e-10, abs=1e-15)

    def test_backends_agree_on_every_field(self):
        # the same counts as arrays (numpy) and cell by cell as plain numbers (math)
        mu, q = np.meshgrid(GRID_MUS, GRID_QS, indexing="ij")
        for n_pulses in (1e5, 1e10):
            for p_mix in (0.0, 0.1, 0.3):
                counts = expected_counts(n_pulses, q, mu, p_mix, np.exp)
                for policy in ("discard", "assign"):
                    grid = certify(*counts, n_pulses, BUDGET, policy)
                    for cell in np.ndindex(mu.shape):
                        one = certify(*[[float(c[cell]) for c in triple] for triple in counts], n_pulses, BUDGET, policy)
                        assert grid.status[cell] == one.status
                        for name in ("x", "y", "z"):
                            a, b = getattr(grid, name), getattr(one, name)
                            assert a.flipped[cell] == b.flipped
                            for field in ("lower", "upper", "worst", "theta", "adjusted"):
                                assert getattr(a, field)[cell] == pytest.approx(getattr(b, field), rel=1e-12, abs=0.0)
                        paid = "assignment_prob" if policy == "assign" else "surviving_raw_bits"
                        for field in (
                            "radius", "coherence", "n_z", "entropy_bound", "finite_size_penalty",
                            "double_click_cost", "net_bits", "rate_per_pulse", paid,
                        ):
                            assert getattr(grid, field)[cell] == pytest.approx(getattr(one, field), rel=1e-12, abs=0.0)

    def test_policies_agree_on_this_source(self):
        # the depolarized source splits Z doubles evenly, so assigning them
        # costs one full bit each, the same as discarding them
        mus = np.array([0.5, 1.0, 2.0])
        qs = np.array([0.01, 0.1])
        discard = rate_surface(1e9, 0.2, mus, qs, BUDGET, "discard")
        assign = rate_surface(1e9, 0.2, mus, qs, BUDGET, "assign")
        assert np.allclose(discard, assign, atol=1e-12)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("p_mix", [0.0, 0.3])
    @pytest.mark.parametrize("shape", [(120, 99), (1000, 7)])
    def test_block_edges_match_scalar_pipeline(self, shape, p_mix, policy):
        # the grid is certified in blocks of whole mu rows; neither grid's rows are a multiple of a block
        mus, qs = np.linspace(0.1, 1.3, shape[0]), np.linspace(0.004, 0.3, shape[1])
        rows = optimizer._BLOCK_CELLS // qs.size
        assert rows < mus.size and mus.size % rows
        surface = rate_surface(1e8, p_mix, mus, qs, BUDGET, policy)
        assert surface.shape == shape
        inner = sorted({*range(rows - 1, mus.size - 1, rows), *range(rows, mus.size, rows)})
        assert np.all(surface[inner] > 0.0)  # so a skipped or repeated edge row cannot pass as 0
        for i in [0, *inner, mus.size - 1]:
            for j, q in enumerate(qs):
                config = ExperimentConfig(n_pulses=1e8, q=q, mu0=mus[i], eta=1.0, p_mix=p_mix)
                assert surface[i, j] == pytest.approx(config_rate(config, policy), rel=1e-10, abs=1e-15)

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
        surface = rate_surface(1e10, 0.1, np.array([0.95]), np.array([0.005]), BUDGET)
        assert surface[0, 0] == pytest.approx(config_rate(config), rel=1e-12)

    def test_detected_intensity_drives_statistics(self):
        # only mu = eta * mu0 matters for the rate
        a = ExperimentConfig(n_pulses=1e8, q=0.02, mu0=1.0, eta=0.5, p_mix=0.1)
        b = ExperimentConfig(n_pulses=1e8, q=0.02, mu0=0.5, eta=1.0, p_mix=0.1)
        assert config_rate(a) == pytest.approx(config_rate(b), rel=1e-12)

    def test_tiny_intensity_certifies_nothing(self):
        config = ExperimentConfig(n_pulses=1e10, q=0.005, mu0=1e-4, eta=1.0, p_mix=0.1)
        assert config_rate(config) == pytest.approx(0.0, abs=1e-4)


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

    @pytest.mark.parametrize(
        "refined_best, expected",
        [
            ((1.0, 0.2), (1.0, 0.2)),  # equal rate, smaller mu wins though q is larger
            ((2.0, 0.05), (2.0, 0.05)),  # equal rate and mu, smaller q wins
            ((2.5, 0.01), (2.0, 0.1)),  # equal rate, larger mu loses though q is smaller
        ],
    )
    def test_ties_across_surfaces(self, monkeypatch, refined_best, expected):
        # every surface peaks at rate 1: the optimum is the smallest mu, then the smallest q
        calls = []

        def one_cell_surface(n_pulses, p_mix, mus, qs, budget, policy):
            calls.append(None)
            mu, q = (2.0, 0.1) if len(calls) == 1 else refined_best
            return 1.0 * (np.isclose(mus, mu)[:, None] & np.isclose(qs, q)[None, :])

        monkeypatch.setattr(optimizer, "rate_surface", one_cell_surface)
        grids = dict(mu_grid=np.array([1.0, 2.0]), q_grid=np.array([0.1, 0.2]))
        result = optimize(1e8, 0.1, BUDGET, refine_levels=1, **grids)
        assert len(calls) == 2 and result.rate_opt == 1.0
        assert (result.mu_opt, result.q_opt) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("p_mix", [0.0, 0.1, 0.3])
    @pytest.mark.parametrize("n_pulses", [1e5, 1e8, 1e10])
    def test_refinement_stops_at_its_fixed_point(self, monkeypatch, n_pulses, p_mix, policy):
        # past the fixed point every level re-scores cells already scored: 10**8 levels used to take ~12 hours
        trace, (neg_rate, mu, q), ends = search_without_stop(n_pulses, p_mix, policy, 30)
        real, calls = optimizer.rate_surface, []

        def counted(*args):
            calls.append(None)
            assert len(calls) <= 31, "refinement ran past its fixed point"
            return real(*args)

        monkeypatch.setattr(optimizer, "rate_surface", counted)
        start = time.perf_counter()
        result = optimize(n_pulses, p_mix, BUDGET, policy, refine_levels=10**8)
        assert time.perf_counter() - start < 1.0
        assert result.rate_opt == -neg_rate
        if result.positive:
            assert (result.mu_opt, result.q_opt) == (mu, q)
        stop = result.evaluations
        assert stop in ends and stop < len(trace) and np.array_equal(result.trace, trace[:stop])
        kept = set(map(tuple, result.trace.tolist()))
        assert kept.issuperset(map(tuple, trace[stop:].tolist()))
        # the last level scored is not itself redundant: it adds a cell the levels before it did not score
        start = ends[ends.index(stop) - 1]
        assert not set(map(tuple, trace[:start].tolist())).issuperset(map(tuple, trace[start:stop].tolist()))

    @pytest.mark.parametrize("levels", [0, 1, 3, 15])
    def test_levels_before_the_fixed_point_are_unchanged(self, levels):
        for n_pulses, p_mix in ((1e5, 0.0), (1e5, 0.1), (1e10, 0.3)):
            trace, _, _ = search_without_stop(n_pulses, p_mix, "discard", levels)
            assert np.array_equal(optimize(n_pulses, p_mix, BUDGET, refine_levels=levels).trace, trace)

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
        assert result.rate_opt == pytest.approx(config_rate(config), rel=1e-12)
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

    @pytest.mark.parametrize("n_pulses", [float("nan"), float("inf"), 0.0, -1e8])
    def test_pulse_count_refused_by_certify(self, n_pulses):
        # p_mix = 0 makes inf * 0 in the expected counts: no warning may escape before certify refuses
        message = f"^n_pulses must be finite and positive: {n_pulses!r}$"
        with pytest.raises(ValueError, match=message):
            rate_surface(n_pulses, 0.0, np.array([1.4]), np.array([0.01]), BUDGET)
        with pytest.raises(ValueError, match=message):
            optimize(n_pulses, 0.0, BUDGET)
        with pytest.raises(ValueError, match="^p_mix outside"):  # checked before certify sees n_pulses
            rate_surface(n_pulses, 2.0, np.array([1.4]), np.array([0.01]), BUDGET)

    def test_trace_is_replayable(self):
        result = optimize(1e7, 0.0, BUDGET, refine_levels=1)
        assert isinstance(result, OptimizationResult)
        sample = result.trace[:: max(1, result.trace.shape[0] // 7)]
        for mu, q, rate in sample:
            config = ExperimentConfig(n_pulses=1e7, q=q, mu0=mu, eta=1.0, p_mix=0.0)
            assert rate == pytest.approx(config_rate(config), rel=1e-12, abs=1e-15)


class TestPeakMemory:
    """Traced peak allocation on the CLI's largest grid, 1000 x 1000 cells (8 MB per full-grid array)."""

    MUS = np.linspace(0.005, 5.0, 1000)
    QS = np.linspace(0.0004, 0.4995, 1000)

    @staticmethod
    def traced_peak(call) -> float:
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()

    def test_rate_surface(self):
        # the surface is 7.6 MiB; the ~30 temporaries of one certify call over the whole grid would be ~230 MiB
        peak = self.traced_peak(lambda: rate_surface(1e8, 0.1, self.MUS, self.QS, BUDGET))
        assert peak < 32.0

    def test_optimize(self):
        # the surface, and the 23 MiB (mu, q, rate) trace of its cells with its one stacked copy
        peak = self.traced_peak(lambda: optimize(1e8, 0.1, BUDGET, mu_grid=self.MUS, q_grid=self.QS))
        assert peak < 64.0
