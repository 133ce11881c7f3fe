"""End-to-end acceptance checks for the certification pipeline.

Each test covers one headline behavior of the library, at the tolerance the
behavior is specified with, so a verbose run gives one pass/fail line per
claim.  These intentionally re-derive expectations through independent
paths (closed-form arithmetic, Monte Carlo, exhaustive enumeration) rather
than through the code under test.
"""

import math

import numpy as np
import pytest

from siqrng import cli
from siqrng.acquisition import MIN_ENTROPY_COEFF, MIN_ENTROPY_COEFF_2DP, EpsilonBudget, certify, finite_size_floor
from siqrng.cli import main
from siqrng.detector import ExperimentConfig, analytic_click_stats, mc_sample
from siqrng.extractor import ToeplitzSpec, toeplitz_extract, toeplitz_matrix
from siqrng.optimizer import optimize
from siqrng.qubit import binary_entropy, binary_entropy_arr

from conftest import QubitTomogram, coherence_rel_entropy, random_tomogram_array, von_neumann_entropy

BUDGET = EpsilonBudget.uniform(1e-10)


@pytest.fixture
def compare_columns(monkeypatch, tmp_path):
    """Run `compare --step 0.05 --out` and return its CSV rows and the float columns behind their text."""
    columns = {}
    write_csv = cli._write_csv

    def capture(out, header, data):
        columns.update(zip(header, data))
        write_csv(out, header, data)

    monkeypatch.setattr(cli, "_write_csv", capture)
    path = tmp_path / "compare.csv"
    assert main(["compare", "--step", "0.05", "--out", str(path)]) == 0
    return path.read_text().splitlines(), columns


def test_01_tomography_dominates_witness_on_unit_disk(compare_columns):
    # 0.05-step grid over the Bloch x-y disk: the tomography rate never loses,
    # and the two certificates coincide on the y = 0 slice
    lines, columns = compare_columns
    axis = np.round(np.arange(-20, 21) * 0.05, 10)
    disk = [(x, y) for x in axis for y in axis if x * x + y * y <= 1.0 + 1e-9]
    assert len(disk) == 1257  # every grid point inside the closed disk
    assert lines[0] == "x,y,rate_witness,rate_tomography,gap" and len(lines) == 1 + 1257
    assert list(zip(columns["x"].tolist(), columns["y"].tolist())) == disk
    x, y, r_u, r_t = (columns[key] for key in ("x", "y", "rate_witness", "rate_tomography"))
    for i in range(x.size):
        assert r_t[i] - r_u[i] >= -1e-12, (x[i], y[i])
        if y[i] == 0.0:
            assert abs(r_t[i] - r_u[i]) <= 1e-9, (x[i], y[i])


def test_02_circular_state_witness_blind_tomography_full(compare_columns):
    # the state with p_y = 1 looks uniform to the X-basis witness (rate 0)
    # while tomography certifies the full bit
    lines, columns = compare_columns
    (row,) = np.flatnonzero((columns["x"] == 0.0) & (columns["y"] == 1.0))
    assert lines[1 + row].startswith("0,1,0,1,")
    assert columns["rate_witness"][row] == 0.0
    assert abs(columns["rate_tomography"][row] - 1.0) <= 1e-12


def test_03_optimal_intensity_for_three_noise_levels():
    expected = {0.0: 1.4, 0.1: 0.9, 0.3: 0.5}
    for p_mix, mu_target in expected.items():
        result = optimize(n_pulses=1e10, p_mix=p_mix, budget=BUDGET)
        assert result.positive
        assert abs(result.mu_opt - mu_target) <= 0.1, (p_mix, result.mu_opt)


def test_04_pulse_budget_threshold_and_bias_trend():
    exponents = np.arange(4.0, 10.01, 0.5)
    results = {e: optimize(n_pulses=10.0**e, p_mix=0.1, budget=BUDGET) for e in exponents}

    positive = [e for e in exponents if results[e].positive]
    threshold = min(positive)
    assert 4.5 <= threshold <= 5.1, threshold

    q_threshold = results[threshold].q_opt
    assert abs(q_threshold - 0.14) <= 0.03, q_threshold

    # optimal bias decays with the pulse budget (one coarse grid cell of slack)
    tail = [e for e in exponents if e >= 5.0]
    for a, b in zip(tail, tail[1:]):
        assert results[b].q_opt <= results[a].q_opt + 0.005 + 1e-9, (a, b)

    # and more pulses never certify a lower optimal rate
    for a, b in zip(tail, tail[1:]):
        assert results[b].rate_opt >= results[a].rate_opt - 1e-12, (a, b)


def test_05_monte_carlo_reproduces_closed_forms():
    config = ExperimentConfig(n_pulses=1_000_000, q=0.05, mu0=1.0, eta=1.0, p_mix=0.1)
    expected = analytic_click_stats(config)
    n = config.n_pulses
    for seed in (1, 2, 3):
        sampled = mc_sample(config, seed=seed)
        for name in ("x", "y", "z"):
            exp_counts = getattr(expected, name)
            got_counts = getattr(sampled, name)
            for field in ("n0", "n1", "nd"):
                mean = getattr(exp_counts, field)
                got = getattr(got_counts, field)
                sigma = math.sqrt(n * (mean / n) * (1.0 - mean / n))
                assert abs(got - mean) <= 5.0 * sigma, (seed, name, field)
            total_mean = exp_counts.n
            sigma = math.sqrt(n * (total_mean / n) * (1.0 - total_mean / n))
            assert abs(got_counts.n - total_mean) <= 5.0 * sigma, (seed, name, "n")


def test_06_entropic_uncertainty_relation():
    for p_x, p_y, p_z in random_tomogram_array(10_000, seed=101):
        t = QubitTomogram(p_x, p_y, p_z)
        assert binary_entropy(p_z) + binary_entropy(p_x) >= 1.0 + von_neumann_entropy(t) - 1e-9


def test_07_witness_lower_bounds_coherence():
    # counts of 1e6 pulses per basis from states across the Bloch ball, certified on
    # both backends: the coherence is at least the witness of its own adjusted p_x and p_y
    p = random_tomogram_array(10_000, seed=103).T
    counts = [(1e6 * p_j, 1e6 * (1.0 - p_j), np.zeros_like(p_j)) for p_j in p]
    grid = certify(*counts, 3e6, BUDGET)
    assert grid.physical.all() and grid.above_floor.all()
    assert np.all(grid.coherence >= 1.0 - binary_entropy_arr(grid.x.adjusted) - 1e-9)
    assert np.all(grid.coherence >= 1.0 - binary_entropy_arr(grid.y.adjusted) - 1e-9)
    for i in range(p.shape[1]):
        cert = certify(*([float(c[i]) for c in triple] for triple in counts), 3e6, BUDGET)
        assert cert.physical and cert.above_floor
        assert cert.coherence >= 1.0 - binary_entropy(cert.x.adjusted) - 1e-9
        assert cert.coherence >= 1.0 - binary_entropy(cert.y.adjusted) - 1e-9


def test_08_coherence_derivative_sign_pattern():
    # along each probability axis the coherence falls toward 1/2 and rises
    # past it; central differences at random interior points, plus the
    # stationary point at exactly 1/2
    h = 1e-6
    points = 0.5 + 0.8 * (random_tomogram_array(200, seed=109) - 0.5)
    for p_x, p_y, p_z in points:
        base = {"p_x": p_x, "p_y": p_y, "p_z": p_z}
        for axis in ("p_x", "p_y", "p_z"):
            for value in (base[axis], 0.5):
                lo = dict(base, **{axis: value - h})
                hi = dict(base, **{axis: value + h})
                deriv = (
                    coherence_rel_entropy(QubitTomogram(**hi))
                    - coherence_rel_entropy(QubitTomogram(**lo))
                ) / (2.0 * h)
                if value < 0.5:
                    assert deriv <= 1e-6, (axis, value)
                elif value > 0.5:
                    assert deriv >= -1e-6, (axis, value)
                else:
                    assert abs(deriv) <= 1e-6, (axis, value)


def test_09_extractor_universality_and_golden_vector():
    golden = ToeplitzSpec(3, 2, np.array([1, 0, 1, 1], dtype=np.uint8))
    assert toeplitz_extract([1, 0, 1], golden).tolist() == [0, 1]

    n, m = 8, 3
    rng = np.random.default_rng(113)
    pairs = []
    while len(pairs) < 100:
        x = rng.integers(0, 2, n, dtype=np.uint8)
        y = rng.integers(0, 2, n, dtype=np.uint8)
        if not np.array_equal(x, y):
            pairs.append(x ^ y)
    diffs = np.array(pairs).T  # collisions depend only on the difference

    seed_count = 2 ** (n + m - 1)
    collision_counts = np.zeros(len(pairs), dtype=np.int64)
    for value in range(seed_count):
        seed = np.array([(value >> k) & 1 for k in range(n + m - 1)], dtype=np.uint8)
        matrix = toeplitz_matrix(ToeplitzSpec(n, m, seed))
        hashed = matrix.astype(np.int64) @ diffs.astype(np.int64) % 2
        collision_counts += (hashed == 0).all(axis=0)
    fractions = collision_counts / seed_count
    assert np.all(fractions <= 2.0**-m + 1e-12), fractions.max()


def test_10a_penalty_constant_two_decimal_window():
    # 7.09 is k = 4*log2(2 + sqrt(2)) rounded to two decimals, and it rounds up
    assert 7.085 <= MIN_ENTROPY_COEFF < 7.095
    assert round(MIN_ENTROPY_COEFF, 2) == MIN_ENTROPY_COEFF_2DP == 7.09
    assert MIN_ENTROPY_COEFF < MIN_ENTROPY_COEFF_2DP


def test_10b_finite_size_floor_documented(capsys):
    assert finite_size_floor(1e-10) == 108
    rc = main(
        ["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--p", "0.1"]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "finite_size_floor: 108" in out
    note = next(line for line in out.splitlines() if line.startswith("note.finite_size_floor"))
    assert "108" in note and "95" in note
