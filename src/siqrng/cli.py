"""Command-line interface.

Subcommands:

    rate      certified net randomness from a counts file or the simulated source
    compare   witness vs tomography asymptotic rates over the Bloch x-y disk
    simulate  expected or Monte Carlo click statistics of the detector model
    optimize  grid search for the best (mu, q) at a given pulse budget
    extract   Toeplitz hashing of a raw bit file

All documents are plain 'key: value' lines with the full resolved
configuration echoed under config.*; identical invocations produce
byte-identical output.  Machine-readable data is written as CSV with a
header row.  Exit status 0 covers the 'no positive rate' outcome; failures
report the pipeline stage that rejected the input and exit nonzero.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .acquisition import (
    BasisCounts,
    ClickRecord,
    EpsilonBudget,
    assignment_prob,
    double_click_cost_assignment,
    double_click_cost_discard,
    fluctuation_adjust,
    hoeffding_theta,
    parse_counts,
    read_counts,
    squash_bounds,
    total_epsilon,
    worst_case_prob,
    write_counts,
)
from .bounds import (
    MIN_ENTROPY_COEFF,
    MIN_ENTROPY_COEFF_2DP,
    assemble_rate_report,
    finite_size_floor,
    tomo_rate_asymptotic,
    witness_rate_asymptotic,
)
from .detector import ClickStats, ExperimentConfig, analytic_click_stats, mc_sample
from .extractor import ToeplitzSpec, format_bit_string, output_length, read_bits, toeplitz_extract, write_bits
from .optimizer import DEFAULT_MU_GRID, DEFAULT_Q_GRID, optimize
from .qubit import QubitTomogram, coherence_rel_entropy

FLOOR_NOTE = (
    "validity floor is ceil((8/5)*log2(2/eps1^2)), e.g. 108 at eps1 = 1e-10; "
    "the value 95 sometimes quoted for that setting understates the requirement"
)

# Echoed fields of a simulated configuration, as (report key, attribute).
_CONFIG_ECHO = (("N", "n_pulses"), ("q", "q"), ("mu0", "mu0"), ("eta", "eta"), ("p", "p_mix"), ("mu", "mu"))

# Per-axis cap for --mu-grid/--q-grid, ten times the default grids' size:
# one rate surface then holds at most 1e6 cells.
MAX_GRID_POINTS = 1000


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage = stage
        self.message = message


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.9g}"
    return str(value)


def _emit(doc: list[tuple[str, object]], out) -> None:
    for key, value in doc:
        print(f"{key}: {_fmt(value)}", file=out)


def _write_csv(path: str, header: list[str], rows: list[list[object]]) -> None:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    Path(path).write_text("\n".join(lines) + "\n")


def _budget_from_args(args) -> EpsilonBudget:
    return EpsilonBudget(
        eps1=args.eps1, eps2=args.eps2, eps_x=args.eps_x, eps_y=args.eps_y, eps_z=args.eps_z
    )


def _echo_budget(budget: EpsilonBudget) -> list[tuple[str, object]]:
    return [
        ("config.eps1", budget.eps1),
        ("config.eps2", budget.eps2),
        ("config.eps_x", budget.eps_x),
        ("config.eps_y", budget.eps_y),
        ("config.eps_z", budget.eps_z),
    ]


def _parse_grid(spec: str) -> np.ndarray:
    try:
        start, stop, step = (float(tok) for tok in spec.split(":"))
    except ValueError:
        raise ValueError(f"grid spec must be start:stop:step, got {spec!r}") from None
    if not all(map(math.isfinite, (start, stop, step))) or step <= 0 or stop < start:
        raise ValueError(f"degenerate grid spec {spec!r}")
    points = (stop - start) / step + 0.5  # np.arange below yields ceil(points) values
    if points > MAX_GRID_POINTS:
        raise ValueError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    return np.round(np.arange(start, stop + step / 2.0, step), 12)


def _counts_from_inline(text: str) -> ClickRecord:
    """Counts from a JSON object of [n0, n1, nd] triples, held to the file format's checks."""
    data = json.loads(text)
    if not isinstance(data, dict):
        raise ValueError("inline counts must be a JSON object")
    counts = {}
    for name in ("x", "y", "z"):
        triple = data.get(name, data.get(name.upper()))
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"inline counts need a [n0, n1, nd] triple for basis {name.upper()}")
        try:
            counts[name] = BasisCounts(*(float(v) for v in triple))
        except (TypeError, ValueError, OverflowError) as e:
            raise ValueError(f"basis {name.upper()}: {e}") from None
    return ClickRecord(**counts)


def _expand_config_args(argv: list[str]) -> list[str]:
    """Fold a --config JSON document into equivalent flags (explicit flags win)."""
    if "--config" not in argv:
        return argv
    pos = argv.index("--config")
    if pos + 1 >= len(argv):
        raise CliError("config", "--config needs a file argument")
    path = argv[pos + 1]
    rest = argv[:pos] + argv[pos + 2 :]
    try:
        data = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise CliError("config", f"cannot read {path}: {e}") from e
    if not isinstance(data, dict):
        raise CliError("config", "document must be a JSON object")
    expanded: list[str] = []
    for key in sorted(data):
        value = data[key]
        flag = "--" + key.replace("_", "-")
        if key == "counts":
            expanded += ["--counts-inline", json.dumps(value)]
        elif isinstance(value, bool):
            if value:
                expanded.append(flag)
        else:
            expanded += [flag, str(value)]
    # insert before explicit flags so the command line overrides the document
    return rest[:1] + expanded + rest[1:]


def _add_epsilon_args(parser) -> None:
    parser.add_argument("--eps1", type=float, default=1e-10)
    parser.add_argument("--eps2", type=float, default=1e-10)
    parser.add_argument("--eps-x", dest="eps_x", type=float, default=1e-10)
    parser.add_argument("--eps-y", dest="eps_y", type=float, default=1e-10)
    parser.add_argument("--eps-z", dest="eps_z", type=float, default=1e-10)


def _add_source_args(parser) -> None:
    parser.add_argument("--N", type=float, help="number of pulses")
    parser.add_argument("--q", type=float, help="X and Y basis sampling probability")
    parser.add_argument("--mu0", type=float, help="source mean photon number")
    parser.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    parser.add_argument("--p", type=float, default=0.0, help="maximally mixed component weight")


class _ArgumentParser(argparse.ArgumentParser):
    """Reports a bad command line as one staged error instead of a usage block and exit."""

    def error(self, message: str):
        raise CliError("arguments", message)


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser tree; `main` parses with the one `_shared_parser` keeps."""
    parser = _ArgumentParser(
        prog="siqrng",
        description="Source-independent quantum randomness certification and extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_rate = sub.add_parser("rate", help="certified net randomness for one run")
    p_rate.add_argument("--counts", help="counts file: one 'basis,n0,n1,nd' line per basis")
    p_rate.add_argument("--counts-inline", help=argparse.SUPPRESS)
    p_rate.add_argument("--simulate", action="store_true", help="use the detector model instead of a file")
    p_rate.add_argument("--mc", action="store_true", help="Monte Carlo sampling instead of expected counts")
    p_rate.add_argument("--seed", type=int, default=0)
    _add_source_args(p_rate)
    _add_epsilon_args(p_rate)
    p_rate.add_argument("--policy", choices=("discard", "assign"), default="discard")
    p_rate.add_argument("--out", help="also write the report as a one-row CSV")

    p_cmp = sub.add_parser("compare", help="witness vs tomography rates on the Bloch x-y disk")
    p_cmp.add_argument("--step", type=float, default=0.05)
    p_cmp.add_argument("--out", help="CSV destination; omitted = CSV to stdout")

    p_sim = sub.add_parser("simulate", help="click statistics of the detector model")
    _add_source_args(p_sim)
    p_sim.add_argument("--mc", action="store_true")
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", help="write counts lines (expected counts are rounded)")

    p_opt = sub.add_parser("optimize", help="best (mu, q) for a pulse budget")
    p_opt.add_argument("--N", type=float, required=True)
    p_opt.add_argument("--p", type=float, default=0.0)
    p_opt.add_argument("--eta", type=float, default=1.0)
    _add_epsilon_args(p_opt)
    p_opt.add_argument("--policy", choices=("discard", "assign"), default="discard")
    p_opt.add_argument("--mu-grid", help="start:stop:step for the detected intensity")
    p_opt.add_argument("--q-grid", help="start:stop:step for the basis bias")
    p_opt.add_argument("--refine-levels", type=int, default=3)
    p_opt.add_argument("--trace-out", help="CSV of every evaluated (mu, q, rate)")

    p_ext = sub.add_parser("extract", help="Toeplitz-hash a raw bit file")
    p_ext.add_argument("--input", required=True, help="raw bits")
    p_ext.add_argument("--seed-file", required=True, help="n + m - 1 seed bits")
    p_ext.add_argument("--format", choices=("ascii", "packed"), default="ascii")
    p_ext.add_argument("--n", type=int, help="raw bit count (required for packed input)")
    p_ext.add_argument("--m", type=int, help="output bit count")
    p_ext.add_argument("--net-bits", type=float, help="certified bits; used with --eps2 when --m is absent")
    p_ext.add_argument("--eps2", type=float, default=1e-10)
    p_ext.add_argument("--out", help="output bits destination; omitted = ASCII to stdout")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The tree every `main` call in this process parses with, built on the first call.

    Building it costs ~2 ms, several times a `rate --counts` certificate, so a
    caller that runs `main` repeatedly in one process pays that once; a console
    launch runs `main` once and gains nothing.  Reuse is safe: `parse_args`
    returns a fresh namespace on each call, and the tree has no `set_defaults`
    or custom actions that a parse could change.
    """
    return build_parser()


def cmd_rate(args, out) -> int:
    stage = "configuration"
    try:
        budget = _budget_from_args(args)
        doc: list[tuple[str, object]] = [("command", "rate"), ("policy", args.policy)]
        config_echo: list[tuple[str, object]] = []
        if args.counts or args.counts_inline:
            stage = "reading counts"
            if args.counts:
                record = read_counts(args.counts)
                source = args.counts
            else:
                record = _counts_from_inline(args.counts_inline)
                source = "<inline>"
            clicks = record.x.n + record.y.n + record.z.n
            n_pulses = args.N if args.N is not None else clicks
            if not (math.isfinite(n_pulses) and n_pulses > 0):
                raise ValueError(f"pulse count must be finite and positive: {n_pulses!r}")
            if clicks > n_pulses:
                # each pulse yields at most one recorded outcome
                raise ValueError(f"counts hold {clicks:.9g} clicks, more than the {n_pulses:.9g} pulses")
            config_echo += [("config.counts", source), ("config.N", n_pulses)]
        elif args.simulate:
            config, stats, echo = _simulate(args, "--simulate")
            record = stats.record()
            n_pulses = config.n_pulses
            config_echo += echo
        else:
            raise ValueError("one of --counts or --simulate is required")
        config_echo += _echo_budget(budget)
        config_echo.append(("config.policy", args.policy))

        stage = "squashing"
        bounds = squash_bounds(record)
        stage = "worst case"
        adjusted = {}
        detail: list[tuple[str, object]] = []
        flips = {}
        worst = {}
        for name in ("x", "y", "z"):
            counts = record.basis(name)
            interval = bounds.basis(name)
            p_w, flipped = worst_case_prob(bounds, name)
            theta = hoeffding_theta(counts.n, budget.for_basis(name))
            adjusted[name] = fluctuation_adjust(p_w, theta)
            worst[name] = p_w
            flips[name] = flipped
            detail += [
                (f"bounds.{name}.lower", interval.lower),
                (f"bounds.{name}.upper", interval.upper),
                (f"worst.{name}", p_w),
                (f"flipped.{name}", flipped),
                (f"theta.{name}", theta),
                (f"adjusted.{name}", adjusted[name]),
            ]
        stage = "coherence"
        tomogram = QubitTomogram(p_x=adjusted["x"], p_y=adjusted["y"], p_z=adjusted["z"])
        coherence = coherence_rel_entropy(tomogram)
        stage = "double-click policy"
        counts_z = record.z.flipped() if flips["z"] else record.z
        if args.policy == "assign":
            p_assign = assignment_prob(worst["z"], counts_z)
            cost = double_click_cost_assignment(counts_z, p_assign)
            detail.append(("assignment_prob", p_assign))
        else:
            cost, surviving = double_click_cost_discard(counts_z)
            detail.append(("surviving_raw_bits", surviving))
        stage = "rate assembly"
        report = assemble_rate_report(
            n_z=record.z.n,
            coherence=coherence,
            epsilon1=budget.eps1,
            double_click_cost=cost,
            n_pulses=n_pulses,
        )
        doc.append(("status", "ok" if report.positive else "no positive rate"))
        doc += config_echo + detail
        doc += [
            ("coherence", coherence),
            ("n_z", report.n_z),
            ("entropy_bound", report.entropy_bound),
            ("finite_size_penalty", report.finite_size_penalty),
            ("double_click_cost", report.double_click_cost),
            ("net_bits", report.net_bits),
            ("rate_per_pulse", report.rate_per_pulse),
            ("total_epsilon", total_epsilon(budget)),
            ("finite_size_floor", finite_size_floor(budget.eps1)),
            ("note.finite_size_floor", FLOOR_NOTE),
            ("penalty_coeff", MIN_ENTROPY_COEFF),
            ("penalty_coeff_2dp", MIN_ENTROPY_COEFF_2DP),
        ]
        _emit(doc, out)
        if args.out:
            stage = "writing output"
            header = [
                "n_z",
                "coherence",
                "entropy_bound",
                "finite_size_penalty",
                "double_click_cost",
                "net_bits",
                "rate_per_pulse",
            ]
            _write_csv(
                args.out,
                header,
                [[
                    report.n_z,
                    coherence,
                    report.entropy_bound,
                    report.finite_size_penalty,
                    report.double_click_cost,
                    report.net_bits,
                    report.rate_per_pulse,
                ]],
            )
        return 0
    except (ValueError, OSError) as e:
        raise CliError(stage, str(e)) from e


def cmd_compare(args, out) -> int:
    stage = "configuration"
    try:
        step = args.step
        if not 0.0 < step <= 1.0:
            raise ValueError(f"step must lie in (0, 1]: {step!r}")
        stage = "rate comparison"
        half = int(math.floor((1.0 + 1e-9) / step))
        axis = np.round(np.arange(-half, half + 1) * step, 12)
        rows = []
        worst_gap = math.inf
        largest_axis_gap = 0.0
        for x in axis:
            for y in axis:
                if x * x + y * y > 1.0 + 1e-9:
                    continue
                p_x = (1.0 + x) / 2.0
                p_y = (1.0 + y) / 2.0
                r_u = witness_rate_asymptotic(p_x)
                r_t = tomo_rate_asymptotic(QubitTomogram(p_x=p_x, p_y=p_y, p_z=0.5))
                gap = r_t - r_u
                rows.append([x, y, r_u, r_t, gap])
                worst_gap = min(worst_gap, gap)
                if y == 0.0:
                    largest_axis_gap = max(largest_axis_gap, abs(gap))
        header = ["x", "y", "rate_witness", "rate_tomography", "gap"]
        if args.out:
            stage = "writing output"
            _write_csv(args.out, header, rows)
            _emit(
                [
                    ("command", "compare"),
                    ("config.step", step),
                    ("points", len(rows)),
                    ("min_gap", worst_gap),
                    ("max_abs_gap_on_axis", largest_axis_gap),
                    ("out", args.out),
                ],
                out,
            )
        else:
            print(",".join(header), file=out)
            for row in rows:
                print(",".join(_fmt(v) for v in row), file=out)
        return 0
    except (ValueError, OSError) as e:
        raise CliError(stage, str(e)) from e


def _simulate(args, flag: str) -> tuple[ExperimentConfig, ClickStats, list[tuple[str, object]]]:
    """The model's configuration and click statistics, with their config.* echo."""
    try:
        for name in ("N", "q", "mu0"):
            if getattr(args, name) is None:
                raise ValueError(f"{flag} needs --{name}")
        config = ExperimentConfig(n_pulses=args.N, q=args.q, mu0=args.mu0, eta=args.eta, p_mix=args.p)
    except ValueError as e:
        raise CliError("configuration", str(e)) from e
    try:
        stats = mc_sample(config, args.seed) if args.mc else analytic_click_stats(config)
    except ValueError as e:
        raise CliError("simulation", str(e)) from e
    echo = [(f"config.{key}", getattr(config, name)) for key, name in _CONFIG_ECHO]
    echo.append(("config.source", "mc" if args.mc else "analytic"))
    if args.mc:
        echo.append(("config.seed", args.seed))
    return config, stats, echo


def cmd_simulate(args, out) -> int:
    _, stats, echo = _simulate(args, "simulate")
    stage = "writing output"
    try:
        doc: list[tuple[str, object]] = [("command", "simulate"), *echo]
        for name in ("x", "y", "z"):
            counts = stats.basis(name)
            doc += [
                (f"pulses.{name}", getattr(stats, f"pulses_{name}")),
                (f"counts.{name}.n0", counts.n0),
                (f"counts.{name}.n1", counts.n1),
                (f"counts.{name}.nd", counts.nd),
                (f"counts.{name}.total", counts.n),
            ]
            if counts.n > 0:
                doc.append((f"double_fraction.{name}", counts.nd / counts.n))
        _emit(doc, out)
        if args.out:
            record = stats.record()
            if not args.mc:
                record = ClickRecord(
                    x=BasisCounts(*(round(v) for v in (record.x.n0, record.x.n1, record.x.nd))),
                    y=BasisCounts(*(round(v) for v in (record.y.n0, record.y.n1, record.y.nd))),
                    z=BasisCounts(*(round(v) for v in (record.z.n0, record.z.n1, record.z.nd))),
                )
            write_counts(args.out, record)
        return 0
    except (ValueError, OSError) as e:
        raise CliError(stage, str(e)) from e


def cmd_optimize(args, out) -> int:
    stage = "configuration"
    try:
        budget = _budget_from_args(args)
        if not 0.0 < args.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1]: {args.eta!r}")
        mu_grid = _parse_grid(args.mu_grid) if args.mu_grid else None
        q_grid = _parse_grid(args.q_grid) if args.q_grid else None
        stage = "optimization"
        result = optimize(
            n_pulses=args.N,
            p_mix=args.p,
            budget=budget,
            policy=args.policy,
            mu_grid=mu_grid,
            q_grid=q_grid,
            refine_levels=args.refine_levels,
        )
        mu_axis = DEFAULT_MU_GRID if mu_grid is None else mu_grid
        q_axis = DEFAULT_Q_GRID if q_grid is None else q_grid
        doc: list[tuple[str, object]] = [
            ("command", "optimize"),
            ("status", result.status),
            ("config.N", args.N),
            ("config.p", args.p),
            ("config.eta", args.eta),
        ]
        doc += _echo_budget(budget)
        doc += [
            ("config.policy", args.policy),
            ("config.mu_grid", f"{mu_axis[0]:.9g}:{mu_axis[-1]:.9g}:{len(mu_axis)}"),
            ("config.q_grid", f"{q_axis[0]:.9g}:{q_axis[-1]:.9g}:{len(q_axis)}"),
            ("config.refine_levels", args.refine_levels),
            ("mu_opt", result.mu_opt),
            ("q_opt", result.q_opt),
            ("mu0_opt", result.mu_opt / args.eta),
            ("rate_opt", result.rate_opt),
            ("evaluations", result.evaluations),
        ]
        _emit(doc, out)
        if args.trace_out:
            stage = "writing output"
            _write_csv(args.trace_out, ["mu", "q", "rate"], result.trace.tolist())
        return 0
    except (ValueError, OSError) as e:
        raise CliError(stage, str(e)) from e


def cmd_extract(args, out) -> int:
    stage = "configuration"
    try:
        if args.m is not None:
            m = args.m
        elif args.net_bits is not None:
            m = output_length(args.net_bits, args.eps2)
        else:
            raise ValueError("either --m or --net-bits is required")
        if m < 0:
            raise ValueError(f"output length must be nonnegative: {m}")
        stage = "reading bits"
        if args.format == "packed" and args.n is None:
            raise ValueError("packed input needs --n")
        raw = read_bits(args.input, args.format, args.n)
        if args.n is not None and raw.size != args.n:
            raise ValueError(f"raw file holds {raw.size} bits, expected {args.n}")
        seed = read_bits(args.seed_file, args.format, raw.size + m - 1 if m > 0 else None)
        stage = "extraction"
        spec = ToeplitzSpec(input_length=raw.size, output_length=m, seed=seed)
        result = toeplitz_extract(raw, spec)
        if args.out:
            stage = "writing output"
            write_bits(args.out, result, args.format)
            _emit(
                [
                    ("command", "extract"),
                    ("config.input", args.input),
                    ("config.seed_file", args.seed_file),
                    ("config.format", args.format),
                    ("n", raw.size),
                    ("m", m),
                    ("out", args.out),
                ],
                out,
            )
        else:
            print(format_bit_string(result), file=out)
        return 0
    except (ValueError, OSError) as e:
        raise CliError(stage, str(e)) from e


_COMMANDS = {
    "rate": cmd_rate,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "extract": cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv = _expand_config_args(argv)
        args = _shared_parser().parse_args(argv)
        return _COMMANDS[args.command](args, sys.stdout)
    except CliError as e:
        print(f"error[{e.stage}]: {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
