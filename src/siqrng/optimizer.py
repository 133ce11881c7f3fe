"""Protocol parameter optimization over source intensity and basis bias.

The objective is the certified net rate per pulse of the analytic detector
model: its expected click counts, certified by `acquisition.certify` under
the chosen double-click policy.  The rate surface is smooth and
unimodal along mu, so a deterministic coarse grid plus local refinement is
both reproducible and fast; no stochastic search is involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acquisition import EpsilonBudget, certify
from .detector import expected_counts
from .qubit import _check_fraction

MU_BOX = (1e-4, 5.0)
Q_BOX = (1e-4, 0.4999)

DEFAULT_MU_GRID = np.round(np.arange(1, 101) * 0.05, 10)
DEFAULT_Q_GRID = np.round(np.arange(1, 100) * 0.005, 10)

REFINE_POINTS = 21

# Most grid cells per `certify` call: its ~30 float64 temporaries stay <= 32 KB each, under
# glibc's 64 KB free-consolidation threshold, and ~1 MB in all, inside a 2 MB L2, so far fewer
# pages are trimmed and faulted back in; smaller blocks pay certify's fixed cost more often.
_BLOCK_CELLS = 4096


def rate_surface(
    n_pulses: float,
    p_mix: float,
    mus: np.ndarray,
    qs: np.ndarray,
    budget: EpsilonBudget,
    policy: str = "discard",
) -> np.ndarray:
    """Certified net bits per pulse on the (mu, q) grid, shape (len(mus), len(qs)).

    The model's expected counts, certified by `certify` in blocks of whole mu
    rows of at most _BLOCK_CELLS cells (one row if longer), so the working set
    stays ~1 MB on any grid; each cell is as in one call.  A cell whose status
    is not 'ok' scores 0: its Z sample is below the finite-size floor, its
    tomogram is nonphysical, or it certifies nothing.  p_mix outside [0, 1]
    (NaN included), or a value `certify` refuses, raises ValueError.
    """
    _check_fraction(p_mix, "p_mix")
    mus = np.asarray(mus, dtype=float)
    qs = np.asarray(qs, dtype=float)
    if mus.size == 0 or qs.size == 0:
        raise ValueError("empty parameter grid")
    if np.any(mus <= 0.0) or np.any(mus > 5.0):
        raise ValueError("mu grid must lie in (0, 5]")
    if np.any(qs <= 0.0) or np.any(qs >= 0.5):
        raise ValueError("q grid must lie in (0, 0.5)")
    # mu down the rows and q along the columns: only the counts are full blocks
    surface = np.empty((mus.size, qs.size))
    rows = max(1, _BLOCK_CELLS // qs.size)
    with np.errstate(all="ignore"):  # an infinite n_pulses gives NaN counts; certify refuses it first
        for start in range(0, mus.size, rows):
            x, y, z = expected_counts(n_pulses, qs[None, :], mus[start : start + rows, None], p_mix, np.exp)
            surface[start : start + rows] = certify(x, y, z, n_pulses, budget, policy).rate_per_pulse
    return surface


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
    source setting.  Each level shrinks the step tenfold around the incumbent,
    up to the fixed point where a level's axes hold only cells of the previous level's.
    Ties go to smaller mu, then smaller q, so repeated runs return the
    identical optimum.  When no evaluated cell is positive there is no optimum:
    the result carries rate 0, mu_opt and q_opt NaN, and the 'no positive rate' status.
    """
    if refine_levels < 0:
        raise ValueError(f"refine_levels must be nonnegative: {refine_levels!r}")
    mus = DEFAULT_MU_GRID if mu_grid is None else np.asarray(mu_grid, dtype=float)
    qs = DEFAULT_Q_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    if mus.ndim != 1 or qs.ndim != 1:
        raise ValueError("parameter grids must be one-dimensional")
    mu_axis = np.unique(mus)
    q_axis = np.unique(qs)

    step_mu = float(np.min(np.diff(mu_axis))) if mu_axis.size > 1 else float(mu_axis[0]) / 2.0
    step_q = float(np.min(np.diff(q_axis))) if q_axis.size > 1 else float(q_axis[0]) / 2.0

    pieces = []
    candidates = []  # (-rate, mu, q) of each surface's best cell; min is the optimum
    for level in range(refine_levels + 1):
        if level:
            _, mu_best, q_best = min(candidates)
            axes = _refine_axis(mu_best, step_mu, MU_BOX), _refine_axis(q_best, step_q, Q_BOX)
            if all(set(old.tolist()).issuperset(new.tolist()) for new, old in zip(axes, (mu_axis, q_axis))):
                break  # the fixed point: every cell of this level is already in the trace
            mu_axis, q_axis = axes
            step_mu /= 10.0
            step_q /= 10.0
        surface = rate_surface(n_pulses, p_mix, mu_axis, q_axis, budget, policy)
        piece = np.empty((mu_axis.size, q_axis.size, 3))  # rows (mu, q, rate), mu-major
        piece[..., 0], piece[..., 1], piece[..., 2] = mu_axis[:, None], q_axis, surface
        pieces.append(piece.reshape(-1, 3))
        # first argmax in mu-major order = smallest mu, then smallest q, among ties
        i, j = divmod(int(np.argmax(surface)), q_axis.size)
        candidates.append((-float(surface[i, j]), float(mu_axis[i]), float(q_axis[j])))

    neg_rate, best_mu, best_q = min(candidates)
    positive = neg_rate < 0.0
    return OptimizationResult(
        mu_opt=best_mu if positive else math.nan,
        q_opt=best_q if positive else math.nan,
        rate_opt=-neg_rate,
        positive=positive,
        trace=np.vstack(pieces),
    )
