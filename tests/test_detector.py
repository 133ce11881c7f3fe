import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from siqrng.acquisition import ClickRecord, EpsilonBudget, certify, format_counts
from siqrng.detector import ExperimentConfig, _arm_rates, analytic_click_stats, mc_sample

from conftest import (
    MAX_PHOTONS,
    PHOTON_TAIL,
    double_click_prob,
    outcome_probs,
    per_pulse_sample,
    photon_averaged_probs,
    photon_pmf,
)

BASE = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(n_pulses=0),
            dict(q=0.0),
            dict(q=0.5),
            dict(mu0=0.0),
            dict(mu0=-1.0),
            dict(eta=1.5),
            dict(eta=-0.1),
            dict(p_mix=1.2),
            *(
                {name: value}
                for name in ("n_pulses", "q", "mu0", "eta", "p_mix")
                for value in (math.nan, math.inf, -math.inf)
            ),
        ],
    )
    def test_validation(self, kwargs):
        fields = dict(n_pulses=1e6, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)
        fields.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentConfig(**fields)

    def test_single_pulse_is_a_run(self):
        config = ExperimentConfig(n_pulses=1, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)
        stats = mc_sample(config, seed=1)
        assert stats.pulses_x + stats.pulses_y + stats.pulses_z == 1

    def test_detected_intensity(self):
        config = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=2.0, eta=0.25, p_mix=0.0)
        assert config.mu == pytest.approx(0.5, rel=1e-15)


class TestAnalytic:
    def test_frozen_x_basis(self):
        stats = analytic_click_stats(BASE)
        assert stats.x.n == pytest.approx(31606.027941427885, rel=1e-12)
        assert stats.x.n0 == pytest.approx(29638.68123999105, rel=1e-12)
        assert stats.x.n1 == pytest.approx(1193.2560927059556, rel=1e-12)
        assert stats.x.nd == pytest.approx(774.0906087308774, rel=1e-12)
        # one-decimal cross-check of the same numbers
        assert stats.x.n == pytest.approx(31606.0, abs=0.05)
        assert stats.x.n0 == pytest.approx(29638.7, abs=0.05)
        assert stats.x.nd == pytest.approx(774.09, abs=0.005)

    def test_pure_source_never_doubles_in_x(self):
        for mu0 in (0.1, 1.0, 3.0):
            config = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=mu0, eta=1.0, p_mix=0.0)
            stats = analytic_click_stats(config)
            assert stats.x.n1 == 0.0
            assert stats.x.nd == 0.0

    def test_conservation(self):
        for cfg in (
            BASE,
            ExperimentConfig(n_pulses=1e8, q=0.3, mu0=2.5, eta=0.4, p_mix=0.7),
        ):
            stats = analytic_click_stats(cfg)
            click_prob = 1.0 - math.exp(-cfg.mu)
            assert stats.x.n == pytest.approx(cfg.n_pulses * cfg.q * click_prob, rel=1e-12)
            assert stats.y.n == pytest.approx(cfg.n_pulses * cfg.q * click_prob, rel=1e-12)
            assert stats.z.n == pytest.approx(
                cfg.n_pulses * (1.0 - 2.0 * cfg.q) * click_prob, rel=1e-12
            )

    def test_y_z_symmetry(self):
        stats = analytic_click_stats(BASE)
        scale = (1.0 - 2.0 * BASE.q) / BASE.q
        assert stats.z.n0 == pytest.approx(stats.y.n0 * scale, rel=1e-12)
        assert stats.z.n1 == pytest.approx(stats.y.n1 * scale, rel=1e-12)
        assert stats.z.nd == pytest.approx(stats.y.nd * scale, rel=1e-12)
        assert stats.y.n0 == stats.y.n1

    def test_double_fraction_vanishes_at_low_intensity(self):
        config = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=1e-6, eta=1.0, p_mix=0.5)
        stats = analytic_click_stats(config)
        assert stats.z.nd / stats.z.n < 1e-5

    @pytest.mark.parametrize("exp", [math.exp, np.exp], ids=["math", "numpy"])
    @given(mu=st.floats(min_value=0.0, max_value=1e6) | st.floats(min_value=0.0, max_value=1e-7))
    @example(mu=1.0003984502978545e-12)
    def test_rates_are_a_distribution(self, exp, mu):
        # 1 + E - 2 Eh, the doubles by cancellation, rounds below zero for many mu below 1.5e-8
        click, single, double, dark = (float(v) for v in _arm_rates(np.array(mu) if exp is np.exp else mu, exp))
        for rate in (click, single, double, dark):
            assert 0.0 <= rate <= 1.0
        assert abs(click + dark - 1.0) <= 2.0 * np.finfo(float).eps
        assert abs(2.0 * single + double + dark - 1.0) <= 4.0 * np.finfo(float).eps

    def test_doubles_keep_their_digits_at_small_intensity(self):
        # the double rate (1 - Eh)^2 is mu^2 / 4 to leading order; 1 - Eh keeps about four digits at 1e-12
        for mu in (1e-12, 1e-10, 1e-8, 1e-5):
            _, single, double, _ = _arm_rates(mu)
            assert double == pytest.approx(mu * mu / 4.0, rel=1e-3, abs=0.0)
            assert single == pytest.approx(mu / 2.0, rel=1e-3, abs=0.0)


def enumerated_double_click_prob(m: int, eta: float, basis: str, p_mix: float) -> float:
    """Exhaustive sum over all survival patterns and 50/50 routings."""
    routed = 0.0
    for survive in itertools.product((0, 1), repeat=m):
        p_s = math.prod(eta if s else 1.0 - eta for s in survive)
        for route in itertools.product((0, 1), repeat=m):
            hit0 = any(s and r == 0 for s, r in zip(survive, route))
            hit1 = any(s and r == 1 for s, r in zip(survive, route))
            if hit0 and hit1:
                routed += p_s * 0.5**m
    return p_mix * routed if basis == "x" else routed


class TestDoubleClickProb:
    def test_needs_two_photons(self):
        for basis in ("x", "y", "z"):
            assert double_click_prob(0, 0.8, basis, 0.5) == 0.0
            assert double_click_prob(1, 0.8, basis, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_frozen_examples(self):
        assert double_click_prob(2, 1.0, "x", 1.0) == pytest.approx(0.5, abs=1e-15)
        assert double_click_prob(2, 0.5, "y") == pytest.approx(0.125, abs=1e-15)

    def test_matches_enumeration(self):
        for m in range(5):
            for eta in (0.0, 0.3, 0.5, 1.0):
                for basis, p_mix in (("x", 0.0), ("x", 0.4), ("x", 1.0), ("y", 0.0), ("z", 0.0)):
                    expected = enumerated_double_click_prob(m, eta, basis, p_mix)
                    assert double_click_prob(m, eta, basis, p_mix) == pytest.approx(
                        expected, abs=1e-12
                    ), (m, eta, basis, p_mix)


def enumerated_outcomes(m: int, eta: float, routed: bool) -> list[float]:
    """(only 0, only 1, both, neither) by exhaustive sum over survival and routing."""
    probs = [0.0] * 4
    for survive in itertools.product((0, 1), repeat=m):
        p_s = math.prod(eta if s else 1.0 - eta for s in survive)
        for route in itertools.product((0, 1), repeat=m):
            hits = {r if routed else 0 for s, r in zip(survive, route) if s}
            outcome = {frozenset({0}): 0, frozenset({1}): 1, frozenset({0, 1}): 2}.get(frozenset(hits), 3)
            probs[outcome] += p_s * 0.5**m
    return probs


def poisson_tail(mu0: float, k: int) -> float:
    """P(m > k) for m ~ Poisson(mu0), summed term by term."""
    return math.fsum(
        math.exp(j * math.log(mu0) - mu0 - math.lgamma(j + 1.0)) for j in range(k + 1, k + 400)
    )


def assert_within_5_sigma(config: ExperimentConfig, sampled) -> None:
    """test_05's check: every count and per-basis total within 5 sigma of the closed form."""
    expected = analytic_click_stats(config)
    n = config.n_pulses
    for name in ("x", "y", "z"):
        exp_counts = getattr(expected, name)
        got_counts = getattr(sampled, name)
        for field in ("n0", "n1", "nd", "n"):
            mean = getattr(exp_counts, field)
            sigma = math.sqrt(n * (mean / n) * (1.0 - mean / n))
            assert abs(getattr(got_counts, field) - mean) <= 5.0 * max(sigma, 1.0), (name, field)
        mean = getattr(expected, f"pulses_{name}")
        sigma = math.sqrt(mean * (1.0 - mean / n))
        assert abs(getattr(sampled, f"pulses_{name}") - mean) <= 5.0 * sigma, (name, "pulses")


class TestOutcomeTable:
    @pytest.mark.parametrize("eta", [0.0, 0.3, 0.5, 0.9, 1.0])
    def test_matches_double_click_prob(self, eta):
        m = np.arange(photon_pmf(50.0).size)
        routed = outcome_probs(m, eta)
        pure = outcome_probs(m, eta, to_zero=1.0)
        for k in m:
            assert routed[k, 2] == pytest.approx(double_click_prob(int(k), eta, "z"), abs=1e-15)
            assert routed[k, 2] == pytest.approx(double_click_prob(int(k), eta, "x", 1.0), abs=1e-15)
            assert pure[k, 2] == double_click_prob(int(k), eta, "x", 0.0) == 0.0
        for table in (routed, pure):
            assert np.all(table >= 0.0)
            assert np.allclose(table.sum(axis=1), 1.0, rtol=0.0, atol=1e-14)
            assert np.allclose(table[:, 3], (1.0 - eta) ** m, rtol=1e-15, atol=0.0)
        assert np.array_equal(routed[:, 0], routed[:, 1])
        assert np.all(pure[:, 1] == 0.0)

    def test_matches_enumeration(self):
        for m in range(5):
            for eta in (0.0, 0.3, 0.5, 1.0):
                for routed in (True, False):
                    expected = enumerated_outcomes(m, eta, routed)
                    got = outcome_probs(m, eta, 0.5 if routed else 1.0)
                    assert got == pytest.approx(expected, abs=1e-12), (m, eta, routed)


class TestPhotonPmf:
    @pytest.mark.parametrize("mu0", [1e-6, 0.5, 3.0, 50.0])
    def test_tail_bound(self, mu0):
        pmf = photon_pmf(mu0)
        m_max = pmf.size - 1
        # the smallest truncation whose tail is below the bound
        assert poisson_tail(mu0, m_max) < PHOTON_TAIL
        assert m_max == 0 or poisson_tail(mu0, m_max - 1) >= PHOTON_TAIL
        exact = [math.exp(k * math.log(mu0) - mu0 - math.lgamma(k + 1.0)) for k in range(m_max)]
        assert pmf[:-1] == pytest.approx(exact, rel=1e-12, abs=1e-300)
        assert pmf[-1] == pytest.approx(poisson_tail(mu0, m_max - 1), rel=1e-12)  # tail lumped in

    def test_window_cap(self):
        with pytest.raises(ValueError):
            photon_pmf(1e6)

    def test_window_cap_is_inclusive(self):
        # the largest mu0 whose window ends at MAX_PHOTONS exactly is sampled, the next float is not
        def top(mu0):
            return math.ceil(mu0 + 16.0 * math.sqrt(mu0) + 40.0)

        mu0 = (math.sqrt(64.0 + MAX_PHOTONS - 40.0) - 8.0) ** 2  # the root of mu0 + 16 sqrt(mu0) + 40 = cap
        while top(mu0) > MAX_PHOTONS:
            mu0 = math.nextafter(mu0, 0.0)
        while top(math.nextafter(mu0, math.inf)) <= MAX_PHOTONS:
            mu0 = math.nextafter(mu0, math.inf)
        assert top(mu0) == MAX_PHOTONS
        assert photon_pmf(mu0).sum() == pytest.approx(1.0, abs=1e-12)
        with pytest.raises(ValueError):
            photon_pmf(math.nextafter(mu0, math.inf))


def two_sample_z(a: int, b: int, n: float) -> float:
    """|a - b| in units of its standard deviation, for two binomial(n, p) counts."""
    p = (a + b) / (2.0 * n)
    sigma = math.sqrt(2.0 * n * p * (1.0 - p))
    if sigma == 0.0:
        return 0.0 if a == b else math.inf
    return abs(a - b) / sigma


class TestMonteCarlo:
    def test_matches_analytic_within_5_sigma(self):
        config = ExperimentConfig(n_pulses=200_000, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)
        expected = analytic_click_stats(config)
        sampled = mc_sample(config, seed=17)
        n = config.n_pulses
        for name in ("x", "y", "z"):
            exp_counts = getattr(expected, name)
            got_counts = getattr(sampled, name)
            for field in ("n0", "n1", "nd"):
                mean = getattr(exp_counts, field)
                got = getattr(got_counts, field)
                sigma = math.sqrt(n * (mean / n) * (1.0 - mean / n))
                assert abs(got - mean) <= 5.0 * max(sigma, 1.0), (name, field)
        assert sampled.pulses_x + sampled.pulses_y + sampled.pulses_z == n

    @pytest.mark.parametrize(
        "sampler, n_pulses",
        [(mc_sample, 1e10), (per_pulse_sample, 1e6)],
        ids=["stratified-1e10", "per_pulse-1e6"],
    )
    def test_05_style_agreement(self, sampler, n_pulses):
        config = ExperimentConfig(n_pulses=n_pulses, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)
        for seed in (1, 2, 3):
            assert_within_5_sigma(config, sampler(config, seed))

    @pytest.mark.parametrize("mu0", [0.5, 3.0, 40.0])
    @pytest.mark.parametrize("p_mix", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("eta", [0.2, 0.7])
    def test_agrees_with_per_pulse_reference(self, eta, p_mix, mu0):
        config = ExperimentConfig(n_pulses=200_000, q=0.2, mu0=mu0, eta=eta, p_mix=p_mix)
        stratified = mc_sample(config, seed=11)
        reference = per_pulse_sample(config, seed=12)
        for name in ("x", "y", "z"):
            a, b = getattr(stratified, name), getattr(reference, name)
            for field in ("n0", "n1", "nd"):
                z = two_sample_z(getattr(a, field), getattr(b, field), config.n_pulses)
                assert z <= 5.0, (name, field, z)
            z = two_sample_z(getattr(stratified, f"pulses_{name}"), getattr(reference, f"pulses_{name}"), config.n_pulses)
            assert z <= 5.0, (name, "pulses", z)

    def test_deterministic_given_seed(self):
        config = ExperimentConfig(n_pulses=50_000, q=0.1, mu0=0.8, eta=0.6, p_mix=0.2)
        first = mc_sample(config, seed=5)
        assert mc_sample(config, seed=5) == first
        assert mc_sample(config, seed=6) != first

    def test_stats_are_a_click_record(self):
        stats = mc_sample(BASE, seed=4)
        assert isinstance(stats, ClickRecord)
        assert format_counts(stats) == format_counts(ClickRecord(stats.x, stats.y, stats.z))

    def test_pulses_sum_to_n(self):
        config = ExperimentConfig(n_pulses=10_001, q=0.2, mu0=1.0, eta=1.0, p_mix=0.5)
        stats = mc_sample(config, seed=1)
        assert stats.pulses_x + stats.pulses_y + stats.pulses_z == 10_001

    def test_counts_are_python_ints(self):
        stats = mc_sample(BASE, seed=4)
        for name in ("x", "y", "z"):
            counts = getattr(stats, name)
            assert all(type(v) is int for v in (counts.n0, counts.n1, counts.nd))
            assert type(getattr(stats, f"pulses_{name}")) is int

    def test_pure_source_structure(self):
        config = ExperimentConfig(n_pulses=100_000, q=0.25, mu0=1.5, eta=0.9, p_mix=0.0)
        stats = mc_sample(config, seed=2)
        assert stats.x.n1 == 0
        assert stats.x.nd == 0
        assert stats.y.nd > 0  # transverse arms still split photons

    def test_blind_detectors(self):
        config = ExperimentConfig(n_pulses=10_000, q=0.1, mu0=1.0, eta=0.0, p_mix=0.5)
        stats = mc_sample(config, seed=3)
        for name in ("x", "y", "z"):
            assert getattr(stats, name).n == 0

    def test_rejects_fractional_pulse_count(self):
        config = ExperimentConfig(n_pulses=1000.5, q=0.1, mu0=1.0, eta=1.0, p_mix=0.0)
        with pytest.raises(ValueError):
            mc_sample(config, seed=0)

    def test_largest_pulse_count(self):
        config = ExperimentConfig(n_pulses=2**63 - 1, q=0.1, mu0=1.0, eta=1.0, p_mix=0.1)
        stats = mc_sample(config, seed=0)
        assert stats.pulses_x + stats.pulses_y + stats.pulses_z == 2**63 - 1

    def test_rejects_pulse_count_beyond_int64(self):
        config = ExperimentConfig(n_pulses=1e19, q=0.1, mu0=1.0, eta=1.0, p_mix=0.0)
        with pytest.raises(ValueError):
            mc_sample(config, seed=0)

    def test_every_pulse_clicks_at_high_intensity(self):
        config = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=100.0, eta=1.0, p_mix=0.1)
        stats = mc_sample(config, seed=1)
        # exp(-100) of the pulses see no photon, so every pulse clicks
        assert (stats.x.n, stats.y.n, stats.z.n) == (stats.pulses_x, stats.pulses_y, stats.pulses_z)


# mc_sample draws at q = 0.05: (N, mu0, eta, p_mix, seed, (x, y, z, pulses_x, pulses_y, pulses_z)).
# The pulse columns predate the one-multinomial outcome draw and pin the basis split it kept.  The
# first twelve rows are the settings of perfbench's mc_certify workload.
GOLDEN_MC = [
    (250000.0, 0.5, 1.0, 0.1, 3, ((4654, 195, 63), (2129, 2061, 612), (39010, 38689, 10776), 12484, 12340, 225176)),
    (250000.0, 0.5, 1.0, 0.1, 17, ((4574, 232, 60), (2193, 2156, 627), (39075, 38593, 10852), 12422, 12570, 225008)),
    (250000.0, 1.4, 1.0, 0.1, 3, ((8759, 288, 313), (3090, 3012, 3174), (56542, 56146, 57403), 12484, 12340, 225176)),
    (250000.0, 1.4, 1.0, 0.1, 17, ((8777, 330, 307), (3172, 3128, 3156), (56608, 56015, 57206), 12422, 12570, 225008)),
    (250000.0, 3.0, 1.0, 0.1, 3, ((10905, 196, 735), (2143, 2074, 7475), (38975, 38637, 136365), 12484, 12340, 225176)),
    (250000.0, 3.0, 1.0, 0.1, 17, ((10862, 233, 729), (2207, 2170, 7555), (39317, 38834, 135813), 12422, 12570, 225008)),
    (1000000.0, 0.5, 1.0, 0.1, 3, ((18606, 842, 241), (8425, 8552, 2498), (154989, 154309, 44028), 49968, 49677, 900355)),
    (1000000.0, 0.5, 1.0, 0.1, 17, ((18412, 868, 265), (8597, 8692, 2448), (155247, 155618, 43860), 49841, 50141, 900018)),
    (1000000.0, 1.4, 1.0, 0.1, 3, ((35130, 1224, 1236), (12264, 12431, 12565), (224946, 224215, 228833), 49968, 49677, 900355)),
    (1000000.0, 1.4, 1.0, 0.1, 17, ((35105, 1259, 1228), (12488, 12600, 12705), (225224, 225596, 227867), 49841, 50141, 900018)),
    (1000000.0, 3.0, 1.0, 0.1, 3, ((43661, 848, 2941), (8477, 8607, 30053), (155955, 155273, 544325), 49968, 49677, 900355)),
    (1000000.0, 3.0, 1.0, 0.1, 17, ((43517, 874, 2985), (8651, 8746, 30253), (156213, 156585, 542591), 49841, 50141, 900018)),
    (1000000.0, 1.4, 0.6, 0.1, 3, ((26654, 1103, 577), (11046, 11200, 5955), (202755, 202033, 105973), 49968, 49677, 900355)),
    (1000000.0, 1.4, 0.6, 0.1, 17, ((26692, 1135, 617), (11254, 11360, 5888), (203028, 203407, 105510), 49841, 50141, 900018)),
    (1000000.0, 1.4, 1.0, 0.0, 3, ((37869, 0, 0), (12462, 12291, 12628), (225112, 224442, 228638), 49968, 49677, 900355)),
    (1000000.0, 1.4, 1.0, 0.0, 17, ((37549, 0, 0), (12451, 12490, 12754), (225593, 224606, 227811), 49841, 50141, 900018)),
]


class TestGoldenStream:
    @pytest.mark.parametrize("n_pulses, mu0, eta, p_mix, seed, expected", GOLDEN_MC)
    def test_counts_are_the_recorded_stream(self, n_pulses, mu0, eta, p_mix, seed, expected):
        config = ExperimentConfig(n_pulses=n_pulses, q=0.05, mu0=mu0, eta=eta, p_mix=p_mix)
        stats = mc_sample(config, seed)
        assert (tuple(stats.x), tuple(stats.y), tuple(stats.z), *stats_pulses(stats)) == expected


def stats_pulses(stats):
    return stats.pulses_x, stats.pulses_y, stats.pulses_z


@pytest.fixture
def drawn_probs(monkeypatch):
    """Call with a config to get the (4, 4) outcome probabilities mc_sample's group multinomial draws from."""
    seen = []

    class Recording(np.random.Generator):
        def multinomial(self, n, pvals, size=None):
            seen.append(np.array(pvals, dtype=float))
            return super().multinomial(n, pvals, size)

    def probe(config: ExperimentConfig) -> np.ndarray:
        with monkeypatch.context() as patch:
            patch.setattr(np.random, "Generator", Recording)
            mc_sample(config, seed=0)
        return seen[-1]

    return probe


class TestSamplerTables:
    @pytest.mark.parametrize("mu0", [1e-3, 0.1, 0.5, 1.4, 3.0, 40.0, 100.0, 3000.0, 9e4])
    @pytest.mark.parametrize("eta", [0.05, 0.3, 0.6, 1.0])
    def test_matches_closed_form(self, drawn_probs, mu0, eta):
        # the oracle sums per-photon-number outcomes, not the exponentials mc_sample draws from
        probs = drawn_probs(ExperimentConfig(n_pulses=1000, q=0.05, mu0=mu0, eta=eta, p_mix=0.1))
        assert probs.shape == (4, 4)
        assert np.abs(probs - photon_averaged_probs(mu0, eta)).max() <= 1e-14


class TestSimulatedWorstProbs:
    """Worst-case probabilities of the model's expected counts, read from their certificate.

    `worst` is the infinite-data value, before the fluctuation term.
    """

    @staticmethod
    def certificate(config, budget=EpsilonBudget.uniform()):
        stats = analytic_click_stats(config)
        return certify(stats.x, stats.y, stats.z, config.n_pulses, budget)

    def test_pure_source_infinite_data(self):
        config = ExperimentConfig(n_pulses=1e6, q=0.05, mu0=1.0, eta=1.0, p_mix=0.0)
        cert = self.certificate(config)
        assert cert.x.worst == pytest.approx(1.0, rel=1e-12)
        assert cert.x.adjusted == pytest.approx(1.0 - cert.x.theta, rel=1e-12)

    def test_frozen_values_infinite_data(self):
        cert = self.certificate(BASE)
        assert cert.x.worst == pytest.approx(0.9377540668798146, rel=1e-12)
        assert cert.y.lower == pytest.approx(0.3775406687981454, rel=1e-12)
        assert 1.0 - cert.y.lower == pytest.approx(0.6224593312018546, rel=1e-12)
        # the transverse and Z intervals straddle 1/2, so the certified
        # worst case lands on the floor exactly
        assert cert.y.worst == 0.5
        assert cert.z.worst == 0.5

    def test_fluctuation_terms_wired_per_basis(self):
        budget = EpsilonBudget(1e-10, 1e-10, 1e-4, 1e-6, 1e-8)
        cert = self.certificate(BASE, budget)
        stats = analytic_click_stats(BASE)
        assert cert.x.theta == pytest.approx(
            math.sqrt(math.log(1e4) / (2.0 * stats.x.n)), rel=1e-12
        )
        assert cert.y.theta == pytest.approx(
            math.sqrt(math.log(1e6) / (2.0 * stats.y.n)), rel=1e-12
        )
        assert cert.z.theta == pytest.approx(
            math.sqrt(math.log(1e8) / (2.0 * stats.z.n)), rel=1e-12
        )
        assert cert.x.adjusted == pytest.approx(0.9377540668798146 - cert.x.theta, rel=1e-12)
        assert cert.y.adjusted == 0.5
