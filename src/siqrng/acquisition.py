"""Click-record ingestion for threshold detectors.

Double clicks make the per-basis zero-outcome probability an interval rather
than a point: squashing assigns each double click adversarially, so

    p_j in [n0_j / n_j, (n0_j + nd_j) / n_j].

The certified worst case is the point of the interval closest to 1/2 (bit
labels are flipped first whenever the whole interval sits below 1/2), then
a Hoeffding fluctuation term is subtracted and the result floored at 1/2.
Z-basis double clicks are paid for either by discarding them or by random
assignment at a rate chosen to reproduce the worst-case probability.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .qubit import binary_entropy

ASSIGNMENT_TOL = 1e-12


class NoBasisDataError(ValueError):
    """A basis has no clicks, so no probability interval can be formed."""


class IncompatibleCountsError(ValueError):
    """Counts cannot be reconciled with the requested worst-case probability."""


@dataclass(frozen=True)
class BasisCounts:
    """Single and double click counts of one measurement basis."""

    n0: float
    n1: float
    nd: float

    def __post_init__(self) -> None:
        for name in ("n0", "n1", "nd"):
            value = getattr(self, name)
            if value < 0 or not math.isfinite(value):
                raise ValueError(f"{name} must be finite and nonnegative: {value!r}")

    @property
    def n(self) -> float:
        return self.n0 + self.n1 + self.nd

    def flipped(self) -> "BasisCounts":
        """Counts after relabeling the two outcomes."""
        return BasisCounts(n0=self.n1, n1=self.n0, nd=self.nd)


@dataclass(frozen=True)
class ClickRecord:
    x: BasisCounts
    y: BasisCounts
    z: BasisCounts

    def basis(self, name: str) -> BasisCounts:
        try:
            return getattr(self, name.lower())
        except AttributeError:
            raise ValueError(f"unknown basis {name!r}") from None


@dataclass(frozen=True)
class BasisBounds:
    lower: float
    upper: float


@dataclass(frozen=True)
class ProbabilityBounds:
    x: BasisBounds
    y: BasisBounds
    z: BasisBounds

    def basis(self, name: str) -> BasisBounds:
        try:
            return getattr(self, name.lower())
        except AttributeError:
            raise ValueError(f"unknown basis {name!r}") from None


def squash_interval(counts: BasisCounts, name: str = "") -> BasisBounds:
    n = counts.n
    if n <= 0:
        raise NoBasisDataError(f"no clicks in basis {name or '?'}")
    return BasisBounds(lower=counts.n0 / n, upper=(counts.n0 + counts.nd) / n)


def squash_bounds(record: ClickRecord) -> ProbabilityBounds:
    """Per-basis probability intervals from adversarial double-click assignment."""
    return ProbabilityBounds(
        x=squash_interval(record.x, "x"),
        y=squash_interval(record.y, "y"),
        z=squash_interval(record.z, "z"),
    )


def worst_case_interval(lower: float, upper: float) -> tuple[float, bool]:
    """Worst-case probability of one interval, with the flip flag.

    Returns (p_w, flipped) where p_w = max(lower', 1/2) on the label-flipped
    interval when the original one lies entirely below 1/2.  The worst case
    is the point closest to 1/2 because the certified rate is unimodal with
    its minimum there.
    """
    if not 0.0 <= lower <= upper <= 1.0:
        raise ValueError(f"invalid probability interval [{lower!r}, {upper!r}]")
    flipped = upper < 0.5
    if flipped:
        lower, upper = 1.0 - upper, 1.0 - lower
    return max(lower, 0.5), flipped


def worst_case_prob(bounds: ProbabilityBounds, basis: str) -> tuple[float, bool]:
    interval = bounds.basis(basis)
    return worst_case_interval(interval.lower, interval.upper)


def hoeffding_theta(n: float, epsilon: float) -> float:
    """Fluctuation half-width theta with e^(-2 theta^2 n) = epsilon."""
    if n <= 0:
        raise ValueError(f"sample size must be positive: {n!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError(f"epsilon must lie strictly in (0, 1): {epsilon!r}")
    return math.sqrt(math.log(1.0 / epsilon) / (2.0 * n))


def fluctuation_adjust(p_w: float, theta: float) -> float:
    """Shift the worst case toward 1/2 by theta, floored at 1/2."""
    if not 0.5 <= p_w <= 1.0:
        raise ValueError(f"worst-case probability outside [1/2, 1]: {p_w!r}")
    if theta < 0.0:
        raise ValueError(f"theta must be nonnegative: {theta!r}")
    return max(p_w - theta, 0.5)


def assignment_prob(p_w_z: float, counts_z: BasisCounts) -> float:
    """Assignment rate p_a that makes assigned Z data match the worst case.

    Each Z double click is assigned outcome 0 with probability
    p_a = (p_w_z * n_z - n0_z) / nd_z.  Counts incompatible with p_a in
    [0, 1] cannot be postprocessed this way (fall back to discarding).
    """
    n = counts_z.n
    if n <= 0:
        raise NoBasisDataError("no clicks in basis z")
    if counts_z.nd == 0:
        if abs(p_w_z * n - counts_z.n0) <= ASSIGNMENT_TOL * max(n, 1.0):
            return 0.0
        raise IncompatibleCountsError(
            f"no double clicks, but p_w_z = {p_w_z!r} differs from n0/n = {counts_z.n0 / n!r}"
        )
    p_a = (p_w_z * n - counts_z.n0) / counts_z.nd
    if p_a < -ASSIGNMENT_TOL or p_a > 1.0 + ASSIGNMENT_TOL:
        raise IncompatibleCountsError(
            f"assignment probability {p_a!r} outside [0, 1]: worst case {p_w_z!r} "
            f"is not reachable from counts {counts_z}"
        )
    return min(max(p_a, 0.0), 1.0)


def double_click_cost_assignment(counts_z: BasisCounts, p_a: float) -> float:
    """Entropy paid for keeping assigned double clicks: nd_z * h(p_a)."""
    return counts_z.nd * binary_entropy(p_a)


def double_click_cost_discard(counts_z: BasisCounts) -> tuple[float, float]:
    """Bits paid for discarding double clicks, and the surviving raw-bit count."""
    return counts_z.nd, counts_z.n - counts_z.nd


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability budget; the overall epsilon is the plain sum."""

    eps1: float
    eps2: float
    eps_x: float
    eps_y: float
    eps_z: float

    def __post_init__(self) -> None:
        for name in ("eps1", "eps2", "eps_x", "eps_y", "eps_z"):
            value = getattr(self, name)
            if not 0.0 < value < 1.0:
                raise ValueError(f"{name} must lie strictly in (0, 1): {value!r}")
        total = self.eps1 + self.eps2 + self.eps_x + self.eps_y + self.eps_z
        if total >= 1.0:
            raise ValueError(f"epsilon budget sums to {total!r} >= 1")

    @classmethod
    def uniform(cls, value: float = 1e-10) -> "EpsilonBudget":
        return cls(value, value, value, value, value)

    def for_basis(self, name: str) -> float:
        key = {"x": "eps_x", "y": "eps_y", "z": "eps_z"}.get(name.lower())
        if key is None:
            raise ValueError(f"unknown basis {name!r}")
        return getattr(self, key)


def total_epsilon(budget: EpsilonBudget) -> float:
    """Overall failure probability of a run under the given budget."""
    total = budget.eps1 + budget.eps2 + budget.eps_x + budget.eps_y + budget.eps_z
    if total >= 1.0:
        raise ValueError(f"epsilon budget sums to {total!r} >= 1")
    return total


# --- text format: one line per basis, "basis,n0,n1,nd" ---


def _parse_count(token: str, line_no: int) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"line {line_no}: count {token!r} is not a number") from None
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"line {line_no}: count {token!r} must be finite and nonnegative")
    return int(value) if value == int(value) else value


def parse_counts(text: str) -> ClickRecord:
    """Parse a counts document: 'basis,n0,n1,nd' per line, '#' comments allowed."""
    seen: dict[str, BasisCounts] = {}
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"line {line_no}: expected 'basis,n0,n1,nd', got {raw_line!r}")
        basis = fields[0].lower()
        if basis not in ("x", "y", "z"):
            raise ValueError(f"line {line_no}: unknown basis {fields[0]!r}")
        if basis in seen:
            raise ValueError(f"line {line_no}: duplicate basis {fields[0]!r}")
        n0, n1, nd = (_parse_count(tok, line_no) for tok in fields[1:])
        seen[basis] = BasisCounts(n0=n0, n1=n1, nd=nd)
    missing = [b for b in ("x", "y", "z") if b not in seen]
    if missing:
        raise ValueError(f"missing basis line(s): {', '.join(b.upper() for b in missing)}")
    return ClickRecord(x=seen["x"], y=seen["y"], z=seen["z"])


def format_counts(record: ClickRecord) -> str:
    lines = []
    for name in ("x", "y", "z"):
        c = record.basis(name)
        lines.append(f"{name.upper()},{c.n0:g},{c.n1:g},{c.nd:g}")
    return "\n".join(lines) + "\n"


def read_counts(path: str | Path) -> ClickRecord:
    return parse_counts(Path(path).read_text())


def write_counts(path: str | Path, record: ClickRecord) -> None:
    Path(path).write_text(format_counts(record))
