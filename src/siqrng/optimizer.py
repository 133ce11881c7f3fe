"""Protocol parameter optimization over source intensity and basis bias.

The objective is the certified net rate of the analytic detector model:
worst-case probabilities from the squashed click intervals, coherence of the
resulting tomogram, finite-size min-entropy bound, minus the double-click
cost of the chosen policy, per pulse.  The rate surface is smooth and
unimodal along mu, so a deterministic coarse grid plus local refinement is
both reproducible and fast; no stochastic search is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquisition import EpsilonBudget
from .bounds import MIN_ENTROPY_COEFF, finite_size_floor, smoothing_log_term
from .detector import ExperimentConfig
from .qubit import binary_entropy_arr

MU_BOX = (1e-4, 5.0)
Q_BOX = (1e-4, 0.4999)
POLICIES = ("discard", "assign")

DEFAULT_MU_GRID = np.round(np.arange(1, 101) * 0.05, 10)
DEFAULT_Q_GRID = np.round(np.arange(1, 100) * 0.005, 10)

REFINE_POINTS = 21


def _check_policy(policy: str) -> None:
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}: {policy!r}")


def rate_surface(
    n_pulses: float,
    p_mix: float,
    mus: np.ndarray,
    qs: np.ndarray,
    budget: EpsilonBudget,
    policy: str = "discard",
) -> np.ndarray:
    """Certified net bits per pulse on the (mu, q) grid, shape (len(mus), len(qs)).

    Vectorized stage-for-stage equivalent of the scalar pipeline: analytic
    counts -> squashed intervals -> worst case -> fluctuation floor ->
    coherence -> min-entropy bound -> double-click cost.  Grid points whose
    Z sample is below the finite-size floor certify nothing and score 0.
    A non-finite or nonpositive n_pulses, or p_mix outside [0, 1] (NaN
    included), raises ValueError rather than scoring the grid.
    """
    _check_policy(policy)
    if not (math.isfinite(n_pulses) and n_pulses > 0.0):
        raise ValueError(f"n_pulses must be finite and positive: {n_pulses!r}")
    if not 0.0 <= p_mix <= 1.0:
        raise ValueError(f"p_mix must lie in [0, 1]: {p_mix!r}")
    mus = np.asarray(mus, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if mus.size == 0 or qs.size == 0:
        raise ValueError("empty parameter grid")
    if np.any(mus <= 0.0) or np.any(mus > 5.0):
        raise ValueError("mu grid must lie in (0, 5]")
    if np.any(qs <= 0.0) or np.any(qs >= 0.5):
        raise ValueError("q grid must lie in (0, 0.5)")

    mu, q = np.meshgrid(mus, qs, indexing="ij")
    e_full = np.exp(-mu)
    e_half = np.exp(-mu / 2.0)
    clicks = 1.0 - e_full
    singles = e_half - e_full
    doubles = 1.0 + e_full - 2.0 * e_half

    n_x = n_pulses * q * clicks
    n_z = n_pulses * (1.0 - 2.0 * q) * clicks
    n0_z = n_pulses * (1.0 - 2.0 * q) * singles
    nd_z = n_pulses * (1.0 - 2.0 * q) * doubles

    with np.errstate(all="ignore"):
        lower_x = (1.0 - p_mix - e_full + p_mix * e_half) / clicks
        lower_yz = singles / clicks
        theta_x = np.sqrt(np.log(1.0 / budget.eps_x) / (2.0 * n_x))
        theta_y = np.sqrt(np.log(1.0 / budget.eps_y) / (2.0 * n_pulses * q * clicks))
        theta_z = np.sqrt(np.log(1.0 / budget.eps_z) / (2.0 * n_z))
        p_x = np.maximum(np.maximum(lower_x, 0.5) - theta_x, 0.5)
        p_y = np.maximum(np.maximum(lower_yz, 0.5) - theta_y, 0.5)
        p_z = np.maximum(np.maximum(lower_yz, 0.5) - theta_z, 0.5)

        radius = np.sqrt(
            np.clip(4.0 * (p_x**2 + p_y**2 + p_z**2 - p_x - p_y - p_z) + 3.0, 0.0, 1.0)
        )
        coherence = binary_entropy_arr(p_z) - binary_entropy_arr((1.0 + radius) / 2.0)
        coherence = np.maximum(coherence, 0.0)

        bound = n_z * coherence - MIN_ENTROPY_COEFF * np.sqrt(
            n_z * smoothing_log_term(budget.eps1)
        )
        if policy == "discard":
            cost = nd_z
        else:
            p_w_z = np.maximum(lower_yz, 0.5)
            p_assign = np.where(nd_z > 0.0, (p_w_z * n_z - n0_z) / np.where(nd_z > 0.0, nd_z, 1.0), 0.0)
            cost = nd_z * binary_entropy_arr(np.clip(p_assign, 0.0, 1.0))
        net = bound - cost

    valid = (n_x > 0.0) & (n_z >= finite_size_floor(budget.eps1)) & np.isfinite(net)
    net = np.where(valid, net, 0.0)
    return np.maximum(net, 0.0) / n_pulses


def rate_objective(config: ExperimentConfig, budget: EpsilonBudget, policy: str = "discard") -> float:
    """Certified net bits per pulse for one configuration (0 when nothing is certified)."""
    surface = rate_surface(
        config.n_pulses, config.p_mix, np.array([config.mu]), np.array([config.q]), budget, policy
    )
    return float(surface[0, 0])


@dataclass(frozen=True, eq=False)
class OptimizationResult:
    mu_opt: float
    q_opt: float
    rate_opt: float
    positive: bool
    trace: np.ndarray  # rows (mu, q, rate) for every evaluation, in order

    @property
    def status(self) -> str:
        return "ok" if self.positive else "no positive rate"

    @property
    def evaluations(self) -> int:
        return int(self.trace.shape[0])


def _refine_axis(center: float, halfwidth: float, box: tuple[float, float]) -> np.ndarray:
    grid = np.linspace(center - halfwidth, center + halfwidth, REFINE_POINTS)
    return np.unique(np.clip(grid, box[0], box[1]))


def optimize(
    n_pulses: float,
    p_mix: float,
    budget: EpsilonBudget,
    policy: str = "discard",
    mu_grid: np.ndarray | None = None,
    q_grid: np.ndarray | None = None,
    refine_levels: int = 3,
) -> OptimizationResult:
    """Deterministic grid search with nested refinement over (mu, q).

    mu is the detected intensity eta * mu0; divide by eta to recover the
    source setting.  Each refinement level shrinks the step tenfold around
    the incumbent.  Ties are broken toward smaller mu, then smaller q, so
    repeated runs return the identical optimum.  When no evaluated cell is
    positive there is no optimum: the result carries rate 0, mu_opt and
    q_opt NaN, and the 'no positive rate' status.
    """
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be nonnegative: {refine_levels!r}")
    mus = DEFAULT_MU_GRID if mu_grid is None else np.asarray(mu_grid, dtype=float)
    qs = DEFAULT_Q_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    if mus.ndim != 1 or qs.ndim != 1:
        raise ValueError("parameter grids must be one-dimensional")
    mus = np.unique(mus)
    qs = np.unique(qs)

    step_mu = float(np.min(np.diff(mus))) if mus.size > 1 else float(mus[0]) / 2.0
    step_q = float(np.min(np.diff(qs))) if qs.size > 1 else float(qs[0]) / 2.0

    best_mu = best_q = best_rate = None
    pieces = []

    def evaluate(mu_axis: np.ndarray, q_axis: np.ndarray) -> None:
        nonlocal best_mu, best_q, best_rate
        surface = rate_surface(n_pulses, p_mix, mu_axis, q_axis, budget, policy)
        mu_mesh, q_mesh = np.meshgrid(mu_axis, q_axis, indexing="ij")
        pieces.append(np.column_stack([mu_mesh.ravel(), q_mesh.ravel(), surface.ravel()]))
        # first argmax in mu-major order = smallest mu, then smallest q, among ties
        flat = int(np.argmax(surface))
        i, j = divmod(flat, q_axis.size)
        mu_c, q_c, rate_c = float(mu_axis[i]), float(q_axis[j]), float(surface[i, j])
        if (
            best_rate is None
            or rate_c > best_rate
            or (rate_c == best_rate and (mu_c, q_c) < (best_mu, best_q))
        ):
            best_mu, best_q, best_rate = mu_c, q_c, rate_c

    evaluate(mus, qs)
    for _ in range(refine_levels):
        evaluate(
            _refine_axis(best_mu, step_mu, MU_BOX),
            _refine_axis(best_q, step_q, Q_BOX),
        )
        step_mu /= 10.0
        step_q /= 10.0

    trace = np.vstack(pieces)
    positive = best_rate > 0.0
    return OptimizationResult(
        mu_opt=best_mu if positive else math.nan,
        q_opt=best_q if positive else math.nan,
        rate_opt=best_rate,
        positive=positive,
        trace=trace,
    )
