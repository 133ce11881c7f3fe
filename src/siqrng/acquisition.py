"""Click records and their certification.

Double clicks make the per-basis zero-outcome probability an interval rather
than a point: squashing assigns each double click adversarially, so

    p_j in [n0_j / n_j, (n0_j + nd_j) / n_j].

The certified worst case is the point of the interval closest to 1/2 (bit
labels are flipped first whenever the whole interval sits below 1/2), less a
Hoeffding fluctuation term and floored at 1/2.  It is the worst because the
coherence C = h(p_z) - h((1 + r) / 2) is nondecreasing in each |2p - 1|.  C
of the resulting tomogram gives the output length certified against a
quantum side channel,

    R >= n_z * C - k * sqrt(n_z * log2(2 / eps1^2)),    k = 4 log2(2 + sqrt(2)),

once n_z clears a floor logarithmic in 1/eps1; k is also exported rounded
up to 7.09 for reports, since it multiplies a subtracted security term.  Z
double clicks are paid for by discarding them or by random assignment at
the rate that reproduces the worst case.  `certify` runs the whole chain on
one run's counts or on arrays of counts, with `qubit`'s Bloch length and
coherence on the matching float or array backend.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, fields

import numpy as np

from .qubit import PHYSICALITY_TOL, _MATH_OPS, _NUMPY_OPS, _bloch_radius, _coherence

POLICIES = ("discard", "assign")

DEFAULT_EPSILON = 1e-10  # each failure probability of an EpsilonBudget unless set

MIN_ENTROPY_COEFF = 4.0 * math.log2(2.0 + math.sqrt(2.0))
MIN_ENTROPY_COEFF_2DP = 7.09


def _check_epsilon(value: float, name: str) -> None:
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly in (0, 1): {value!r}")


def smoothing_log_term(epsilon1: float) -> float:
    """log2(2 / eps1^2), the sample-complexity factor of the finite-size penalty."""
    _check_epsilon(epsilon1, "epsilon1")
    return math.log2(2.0 / epsilon1**2)


def finite_size_floor(epsilon1: float) -> int:
    """Smallest Z-basis sample size for which the finite-size bound is valid.

    Uses the exact validity condition n_z >= (8/5) * log2(2 / eps1^2).  The
    ceiling is taken without a slack tolerance: rounding up is the
    conservative direction for a validity threshold.
    """
    return math.ceil(1.6 * smoothing_log_term(epsilon1))


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

    def __iter__(self):
        return iter((self.n0, self.n1, self.nd))


@dataclass(frozen=True)
class ClickRecord:
    x: BasisCounts
    y: BasisCounts
    z: BasisCounts


@dataclass(frozen=True)
class EpsilonBudget:
    """Failure-probability budget; the overall epsilon is the plain sum."""

    eps1: float
    eps2: float
    eps_x: float
    eps_y: float
    eps_z: float

    def __post_init__(self) -> None:
        for name in _BUDGET_FIELDS:
            _check_epsilon(getattr(self, name), name)
        total_epsilon(self)

    @classmethod
    def uniform(cls, value: float = DEFAULT_EPSILON) -> "EpsilonBudget":
        return cls(value, value, value, value, value)


_BUDGET_FIELDS = tuple(f.name for f in fields(EpsilonBudget))  # taken once, not reflected on per certificate


def total_epsilon(budget: EpsilonBudget) -> float:
    """Overall failure probability of a run under the given budget."""
    total = budget.eps1 + budget.eps2 + budget.eps_x + budget.eps_y + budget.eps_z
    if total >= 1.0:
        raise ValueError(f"epsilon budget sums to {total!r} >= 1")
    return total


# --- certification: one body, run on floats (math) or on arrays (numpy) ---


# Cell outcomes, in the order they are tested: a basis without clicks, a
# tomogram outside the Bloch ball (NaN included), a Z sample below the
# finite-size floor, then whether the net bits come out positive.
STATUSES = ("no_clicks", "nonphysical", "below_floor", "no_positive_rate", "ok")


@dataclass(frozen=True)
class BasisEstimate:
    """One basis of a certificate, from squashed interval to adjusted probability.

    `certify` computes every field once, with the backend it chose: numbers, or arrays of cells.
    """

    lower: float  # NaN when the basis has no clicks
    upper: float
    worst: float  # the interval point closest to 1/2, after relabeling
    flipped: bool  # the interval lies below 1/2, so the labels were swapped
    theta: float
    adjusted: float  # worst - theta, floored at 1/2


@dataclass(frozen=True)
class Certificate:
    """Every value of one certification; arrays of cells when the counts are arrays.

    net_bits = entropy_bound - finite_size_penalty - double_click_cost where
    status is 'ok' and 0 in every other cell, and rate_per_pulse =
    net_bits / n_pulses.  assignment_prob is set under the 'assign' policy
    and surviving_raw_bits under 'discard'.
    """

    x: BasisEstimate
    y: BasisEstimate
    z: BasisEstimate
    radius: float  # Bloch vector length of the adjusted tomogram, unclamped
    coherence: float
    n_z: float
    finite_size_penalty: float
    double_click_cost: float
    net_bits: float
    rate_per_pulse: float
    physical: bool  # radius within the Bloch ball (tolerance PHYSICALITY_TOL)
    above_floor: bool  # n_z at or above the finite-size floor
    assignment_prob: float | None = None
    surviving_raw_bits: float | None = None

    @property
    def entropy_bound(self) -> float:
        return self.n_z * self.coherence

    @property
    def status(self) -> str:
        """'ok', or the first check the cell failed, named as in STATUSES."""
        lowers = self.x.lower + self.y.lower + self.z.lower
        clicks = lowers == lowers  # an empty basis has a NaN interval
        positive = self.net_bits > 0.0
        passed = clicks * (1 + self.physical * (1 + self.above_floor * (1 + positive)))
        return np.take(STATUSES, passed) if isinstance(passed, np.ndarray) else STATUSES[passed]


def certify(x, y, z, n_pulses: float, budget: EpsilonBudget, policy: str = "discard") -> Certificate:
    """Certified net bits from the (n0, n1, nd) click counts of bases X, Y and Z.

    Each count is a number or an array, all of one broadcastable shape; with
    arrays every field of the certificate is an array of cells.  Counts must
    be finite and nonnegative, n_pulses finite and positive and at least the
    clicks of every cell, or ValueError is raised.  Cells that cannot be
    certified are not errors: their status says why, and they certify 0.
    """
    if policy not in POLICIES:
        raise ValueError(f"policy must be one of {POLICIES}: {policy!r}")
    if not (math.isfinite(n_pulses) and n_pulses > 0):
        raise ValueError(f"n_pulses must be finite and positive: {n_pulses!r}")
    counts = (tuple(x), tuple(y), tuple(z))
    if all(isinstance(c, (int, float)) for triple in counts for c in triple):
        ops = _MATH_OPS
    else:
        ops = _NUMPY_OPS
        counts = tuple(tuple(np.asarray(c, dtype=float) for c in triple) for triple in counts)
    with ops.quiet():
        bases = []
        clicks = 0
        for name, (n0, n1, nd), eps in zip("XYZ", counts, (budget.eps_x, budget.eps_y, budget.eps_z)):
            n = n0 + n1 + nd
            if not ops.valid(n0, n1, nd, n):
                raise ValueError(f"basis {name}: counts must be finite and nonnegative")
            clicks = clicks + n  # not +=: a later basis may broadcast to a larger shape
            theta = ops.sqrt(ops.div(math.log(1.0 / eps) / 2.0, n))  # Hoeffding: exp(-2 theta^2 n) = eps
            lower, upper = ops.div(n0, n), ops.div(n0 + nd, n)
            worst = ops.maximum(ops.maximum(lower, 1.0 - upper), 0.5)
            bases.append(BasisEstimate(lower, upper, worst, upper < 0.5, theta, ops.maximum(worst - theta, 0.5)))
        if ops.largest(clicks) > n_pulses:
            # each pulse yields at most one recorded outcome
            raise ValueError(f"counts hold {ops.largest(clicks):.9g} clicks, more than the {n_pulses:.9g} pulses")
        n_z = n  # Z is the last basis of the loop
        p_x, p_y, p_z = (b.adjusted for b in bases)

        radius = _bloch_radius(p_x, p_y, p_z, ops)
        coherence = _coherence(p_z, radius, ops)

        n0_z, n1_z, nd_z = counts[2]
        if policy == "assign":
            # assign each Z double click 0 with the rate that reproduces the worst case
            n0_kept = ops.where(bases[2].flipped, n1_z, n0_z)
            p_assign = ops.div(bases[2].worst * n_z - n0_kept, nd_z)
            p_assign = ops.where(nd_z > 0, ops.minimum(ops.maximum(p_assign, 0.0), 1.0), 0.0)
            cost = nd_z * ops.entropy(p_assign)
            paid = {"assignment_prob": p_assign}
        else:
            cost = nd_z
            paid = {"surviving_raw_bits": n_z - nd_z}

        penalty = MIN_ENTROPY_COEFF * ops.sqrt(n_z * smoothing_log_term(budget.eps1))
        net_bits = n_z * coherence - penalty - cost  # entropy bound less the penalty and the cost

        # a basis without clicks has a NaN interval, so its tomogram is not physical
        physical = radius <= 1.0 + PHYSICALITY_TOL
        above_floor = n_z >= finite_size_floor(budget.eps1)
        net_bits = ops.where(physical & above_floor & (net_bits > 0.0), net_bits, 0.0)
    return Certificate(
        *bases,
        radius=radius,
        coherence=coherence,
        n_z=n_z,
        finite_size_penalty=penalty,
        double_click_cost=cost,
        net_bits=net_bits,
        rate_per_pulse=net_bits / n_pulses,
        physical=physical,
        above_floor=above_floor,
        **paid,
    )


# --- text format: one line per basis, "basis,n0,n1,nd" ---


def _as_count(value: float) -> float:
    """value as an int when it is a whole nonnegative number, so a count prints the same by every route."""
    return int(value) if value >= 0 and value.is_integer() else value


def _parse_count(token: str, where: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ValueError(f"{where}: count {token!r} is not a number") from None
    if value < 0 or not math.isfinite(value):
        raise ValueError(f"{where}: count {token!r} must be finite and nonnegative")
    return _as_count(value)


def _read_count_rows(rows) -> ClickRecord:
    """The record of (where, basis, tokens) rows, one per basis; where ('line N', 'basis B') prefixes a row's errors."""
    seen: dict[str, BasisCounts] = {}
    for where, basis, tokens in rows:
        name = basis.lower()
        if name not in ("x", "y", "z"):
            raise ValueError(f"{where}: unknown basis {basis!r}")
        if name in seen:
            raise ValueError(f"{where}: duplicate basis {basis!r}")
        seen[name] = BasisCounts(*(_parse_count(tok, where) for tok in tokens))
    missing = [b for b in ("x", "y", "z") if b not in seen]
    if missing:
        raise ValueError(f"missing basis line(s): {', '.join(b.upper() for b in missing)}")
    return ClickRecord(**seen)


def _count_lines(text: str):
    for line_no, raw_line in enumerate(text.splitlines(), start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split(",")]
        if len(fields) != 4:
            raise ValueError(f"line {line_no}: expected 'basis,n0,n1,nd', got {raw_line!r}")
        yield f"line {line_no}", fields[0], fields[1:]


def parse_counts(text: str) -> ClickRecord:
    """Parse a counts document: 'basis,n0,n1,nd' per line, '#' comments allowed."""
    return _read_count_rows(_count_lines(text))


def format_counts(record: ClickRecord) -> str:
    lines = []
    for name in ("x", "y", "z"):  # float() first: an int has no is_integer before Python 3.12
        lines.append(",".join([name.upper(), *(str(_as_count(float(v))) for v in getattr(record, name))]))
    return "\n".join(lines) + "\n"


def _read_file(path: str | os.PathLike) -> bytes:
    """The file at path in one unbuffered read, with no pathlib object; an int path is refused, not read as a descriptor."""
    with open(os.fspath(path), "rb", buffering=0) as f:
        return f.readall()


def read_counts(path: str | os.PathLike) -> ClickRecord:
    """The counts document at path, in one unbuffered read, decoded as UTF-8 (a leading BOM is dropped)."""
    return parse_counts(_read_file(path).decode("utf-8-sig"))


def write_counts(path: str | os.PathLike, record: ClickRecord) -> None:
    with open(path, "w") as f:
        f.write(format_counts(record))
