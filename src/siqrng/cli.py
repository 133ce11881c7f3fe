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
header row.  Each command returns its report and at most one file writer;
`main` alone writes, the --out or --trace-out file before stdout, so a failed
write prints no report.  Exit status 0 covers the 'no positive rate' outcome;
failures report the pipeline stage that rejected the input and exit nonzero.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from collections.abc import Callable, Sequence
from pathlib import Path

import numpy as np

from .acquisition import (
    DEFAULT_EPSILON,
    MIN_ENTROPY_COEFF,
    MIN_ENTROPY_COEFF_2DP,
    POLICIES,
    BasisCounts,
    ClickRecord,
    EpsilonBudget,
    _BUDGET_FIELDS,
    _read_count_rows,
    certify,
    finite_size_floor,
    read_counts,
    total_epsilon,
    write_counts,
)
from .detector import ClickStats, ExperimentConfig, analytic_click_stats, mc_sample
from .extractor import BIT_FORMATS, ToeplitzSpec, format_bit_string, output_length, read_bits
from .extractor import toeplitz_extract, write_bits
from .optimizer import DEFAULT_MU_GRID, DEFAULT_Q_GRID, optimize
from .qubit import _NUMPY_OPS, NonphysicalStateError, _bloch_radius, _coherence, binary_entropy_arr

FLOOR_NOTE = (
    "validity floor is ceil((8/5)*log2(2/eps1^2)), e.g. 108 at eps1 = 1e-10; "
    "the value 95 sometimes quoted for that setting understates the requirement"
)

# Echoed fields of a simulated configuration, as (report key, attribute).
_CONFIG_ECHO = (("N", "n_pulses"), ("q", "q"), ("mu0", "mu0"), ("eta", "eta"), ("p", "p_mix"), ("mu", "mu"))

# Certificate attributes the rate report prints under their own names; rate --out writes them as CSV, n_z first.
_CERT_FIELDS = (
    "coherence", "n_z", "entropy_bound", "finite_size_penalty", "double_click_cost", "net_bits", "rate_per_pulse",
)

# Per-axis cap for --mu-grid/--q-grid and compare --step, ten times the
# default grids' size: one rate surface then holds at most 1e6 cells.
MAX_GRID_POINTS = 1000

# The flag kind each --config JSON scalar fills: a switch, a numeric flag (every typed flag is one), or any other flag.
_JSON_KINDS = {bool: "a boolean", int: "a number", float: "a number", str: "a string"}

_CSV_CHUNK_ROWS = 4096  # rows per CSV write, at most ~0.35 MB of text

# A command's report (key/value document, (header, columns) table or bit text) and its file writer or None.
_Result = tuple[object, Callable[[], object] | None]


class CliError(Exception):
    def __init__(self, stage: str, message: str):
        super().__init__(stage, message)
        self.stage = stage
        self.message = message


class _stage(contextlib.AbstractContextManager):
    """`with _stage(name):` reports a ValueError or OSError raised inside as CliError(name, message)."""

    def __init__(self, name: str):
        self.name = name

    def __exit__(self, kind, error, traceback):
        if isinstance(error, (ValueError, OSError)):
            raise CliError(self.name, str(error)) from error


def _fmt(value) -> str:
    if isinstance(value, float):  # the commonest case; a bool is an int, not a float
        return f"{value:.9g}"
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _emit(doc: list[tuple[str, object]], out) -> None:
    out.write("".join([f"{key}: {_fmt(value)}\n" for key, value in doc]))


def _write_csv(out, header: list[str], columns: Sequence[Sequence[object]]) -> None:
    """Write header and the rows of equal-length columns to out, at most _CSV_CHUNK_ROWS rows per write.

    float64 array columns print as "%.9g", _fmt's float text, in one format per row; any other
    column goes through _fmt, since "%.9g" prints the int 1234567890 as 1.23456789e+09.
    """
    floats = [isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns]
    line = ",".join("%.9g" if f else "%s" for f in floats) + "\n"
    out.write(",".join(header) + "\n")
    for start in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
        parts = (c[start : start + _CSV_CHUNK_ROWS] for c in columns)
        cells = [part.tolist() if f else list(map(_fmt, part)) for part, f in zip(parts, floats)]
        out.write("".join([line % row for row in zip(*cells)]))


def _save_csv(path: str, header: list[str], columns: Sequence[Sequence[object]]) -> None:
    with open(path, "w") as csv:
        _write_csv(csv, header, columns)


def _budget_from_args(args) -> EpsilonBudget:
    return EpsilonBudget(**{name: getattr(args, name) for name in _BUDGET_FIELDS})


def _echo_budget(budget: EpsilonBudget) -> list[tuple[str, object]]:
    return [(f"config.{name}", getattr(budget, name)) for name in _BUDGET_FIELDS]


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


def _counts_from_inline(data: dict) -> ClickRecord:
    """Counts from a --config object of [n0, n1, nd] triples; each entry is read as its JSON text in a counts file."""
    for key, triple in data.items():
        if not isinstance(triple, list) or len(triple) != 3:
            raise ValueError(f"inline counts need a [n0, n1, nd] triple for basis {key}")
    return _read_count_rows((f"basis {key}", key, [json.dumps(v) for v in triple]) for key, triple in data.items())


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict, refusing a repeated key, of which json.loads would keep the last."""
    data: dict = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def _expand_config_args(argv: list[str]) -> tuple[list[str], dict]:
    """Flags for a --config JSON document, and rate's counts object as a namespace default; explicit flags win."""
    if "--config" not in argv:
        return argv, {}
    pos = argv.index("--config")
    if pos + 1 >= len(argv):
        raise CliError("config", "--config needs a file argument")
    path = argv[pos + 1]
    rest = argv[:pos] + argv[pos + 2 :]
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8-sig"), object_pairs_hook=_unique_keys)
    except (OSError, ValueError) as e:  # ValueError covers malformed JSON, repeated keys and bytes that are not UTF-8
        raise CliError("config", f"cannot read {path}: {e}") from e
    if not isinstance(data, dict):
        raise CliError("config", "document must be a JSON object")
    defaults = {"counts": data.pop("counts")} if isinstance(data.get("counts"), dict) else {}
    if defaults and rest[:1] != ["rate"]:
        raise CliError("arguments", "only rate reads a counts object")
    options = _command_parser(rest[0] if rest else "")._option_string_actions
    expanded: list[str] = []
    for key, value in sorted(data.items()):
        flag = "--" + key.replace("_", "-")
        action = options.get(flag)  # None: an unknown key, which argparse names
        kind = "a boolean" if action and action.nargs == 0 else "a number" if action and action.type else "a string"
        if action and _JSON_KINDS.get(type(value)) != kind:
            raise CliError("config", f"{key} must be {kind}")
        if value is True:
            expanded.append(flag)
        elif value is not False:
            expanded.append(f"{flag}={value}")  # one token, so a value that begins with '-' is not read as a flag
    # insert before explicit flags so the command line overrides the document
    return rest[:1] + expanded + rest[1:], defaults


def _add_epsilon_args(parser) -> None:
    for name in _BUDGET_FIELDS:
        parser.add_argument("--" + name.replace("_", "-"), dest=name, type=float, default=DEFAULT_EPSILON)


def _add_source_args(parser) -> None:
    parser.add_argument("--N", type=float, help="number of pulses")
    parser.add_argument("--q", type=float, help="X and Y basis sampling probability")
    parser.add_argument("--mu0", type=float, help="source mean photon number")
    parser.add_argument("--eta", type=float, default=1.0, help="detection efficiency")
    parser.add_argument("--p", type=float, default=0.0, help="maximally mixed component weight")


class _ArgumentParser(argparse.ArgumentParser):
    """Matches a flag by its full name only, and reports a bad command line as one staged error, not a usage exit."""

    __init__ = functools.partialmethod(argparse.ArgumentParser.__init__, allow_abbrev=False)

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
    p_rate.add_argument("--simulate", action="store_true", help="use the detector model instead of a file")
    p_rate.add_argument("--mc", action="store_true", help="Monte Carlo sampling instead of expected counts")
    p_rate.add_argument("--seed", type=int, default=0)
    _add_source_args(p_rate)
    _add_epsilon_args(p_rate)
    p_rate.add_argument("--policy", choices=POLICIES, default="discard")
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
    p_opt.add_argument("--policy", choices=POLICIES, default="discard")
    p_opt.add_argument("--mu-grid", help="start:stop:step for the detected intensity")
    p_opt.add_argument("--q-grid", help="start:stop:step for the basis bias")
    p_opt.add_argument("--refine-levels", type=int, default=3)
    p_opt.add_argument("--trace-out", help="CSV of every evaluated (mu, q, rate)")

    p_ext = sub.add_parser("extract", help="Toeplitz-hash a raw bit file")
    p_ext.add_argument("--input", required=True, help="raw bits")
    p_ext.add_argument("--seed-file", required=True, help="n + m - 1 seed bits")
    p_ext.add_argument("--format", choices=BIT_FORMATS, default="ascii")
    p_ext.add_argument("--n", type=int, help="raw bit count (required for packed input)")
    p_ext.add_argument("--m", type=int, help="output bit count")
    p_ext.add_argument("--net-bits", type=float, help="certified bits; used with --eps2 when --m is absent")
    p_ext.add_argument("--eps2", type=float, default=DEFAULT_EPSILON)
    p_ext.add_argument("--out", help="output bits destination; omitted = ASCII to stdout")

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The tree every `main` call in this process parses with, built on the first call.

    Building it costs ~2 ms, several times a `rate --counts` certificate, so a
    caller that runs `main` repeatedly in one process pays that once; a console
    launch runs `main` once and gains nothing.  `main` reads an argv that
    starts with a command name from that command's subparser of this tree
    alone: `_parse_plain` reads a well-formed line in one pass over the
    subparser's action table, and the subparser's `parse_args` reads any other.
    Any other argv goes to the tree's top level.  Reuse is safe: both readers
    fill a fresh namespace on each call, and the tree has no `set_defaults` or
    custom actions that a parse could change.
    """
    return build_parser()


@functools.lru_cache(maxsize=1)
def _commands(tree: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    """tree's subparsers by command name, looked up once per tree."""
    return next(a for a in tree._actions if isinstance(a, argparse._SubParsersAction)).choices


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The shared tree's subparser of command name, or the tree itself when name is no command."""
    tree = _shared_parser()
    return _commands(tree).get(name, tree)


def _parse_plain(parser: argparse.ArgumentParser, argv: list[str], namespace: argparse.Namespace):
    """namespace filled from argv in one pass over parser's own action table, or None for argparse to read argv.

    It reads a line only where argparse would read it the same way and accept
    it: every token is a full flag name of a stored value or a switch, each
    stored value follows its flag and does not begin with '-', it converts and
    passes the flag's choices through argparse's own checks, and no required
    flag is missing.  Unseen flags get their defaults as argparse fills them.
    It returns None on help, a '--flag=value' token, a value that begins with
    '-', or anything argparse may refuse, and namespace may then hold some
    flags: argparse reads argv again from a fresh one, and prints or refuses it
    with its own message.
    """
    options, seen = parser._option_string_actions, set()
    tokens = iter(argv)
    try:
        for token in tokens:
            action = options.get(token)
            if type(action) is argparse._StoreTrueAction:
                value = True
            elif type(action) is argparse._StoreAction and action.nargs is None:
                text = next(tokens, "-")  # a flag with no value reads as one followed by a flag
                if text.startswith("-"):  # argparse takes a negative number as a value and refuses other such tokens
                    return None
                value = parser._get_value(action, text)
                parser._check_value(action, value)
            else:  # help, an unknown or abbreviated flag, '--flag=value', '--' or a positional
                return None
            setattr(namespace, action.dest, value)
            seen.add(action)
        for action in parser._actions:
            if action in seen:
                continue
            if action.required:
                return None
            dest, default = action.dest, action.default
            # a --config counts object is already on namespace, and stays
            if dest is not argparse.SUPPRESS and default is not argparse.SUPPRESS and not hasattr(namespace, dest):
                setattr(namespace, dest, parser._get_value(action, default) if isinstance(default, str) else default)
    except argparse.ArgumentError:  # a value that does not convert or is not among the choices
        return None
    return namespace


def cmd_rate(args) -> _Result:
    counts = args.counts not in (None, "")  # a file path or a --config counts object; "" names no file
    with _stage("configuration"):
        budget = _budget_from_args(args)
        if not (counts or args.simulate):
            raise ValueError("one of --counts or --simulate is required")
        if counts and (args.simulate or args.mc):
            raise ValueError("a counts file or object excludes --simulate and --mc")
    if counts:
        with _stage("reading counts"):
            if isinstance(args.counts, dict):
                record, source = _counts_from_inline(args.counts), "<inline>"
            else:
                record, source = read_counts(args.counts), args.counts
        n_pulses = args.N if args.N is not None else record.x.n + record.y.n + record.z.n
        echo: list[tuple[str, object]] = [("config.counts", source), ("config.N", n_pulses)]
    else:
        config, record, echo = _simulate(args, "--simulate")
        n_pulses = config.n_pulses

    # named before certify checks the pulse count, which without --N is the total: 0 when no basis clicked
    empty = next((name for name in "xyz" if not getattr(record, name).n > 0), None)
    if empty:
        raise CliError("squashing", f"no clicks in basis {empty}")
    with _stage("certification"):
        cert = certify(record.x, record.y, record.z, n_pulses, budget, args.policy)
        floor = finite_size_floor(budget.eps1)
    status = cert.status
    if status == "nonphysical":
        with _stage("coherence"):
            raise NonphysicalStateError(cert.x.adjusted, cert.y.adjusted, cert.z.adjusted, cert.radius)
    if status == "below_floor":
        raise CliError(
            "rate assembly",
            f"finite-size bound invalid: n_z = {cert.n_z!r} is below the floor {floor} "
            f"for epsilon1 = {budget.eps1!r}",
        )
    doc: list[tuple[str, object]] = [("command", "rate"), ("policy", args.policy), ("status", status.replace("_", " "))]
    doc += [*echo, *_echo_budget(budget), ("config.policy", args.policy)]
    for name, basis in zip("xyz", (cert.x, cert.y, cert.z)):
        doc += [
            (f"bounds.{name}.lower", basis.lower),
            (f"bounds.{name}.upper", basis.upper),
            (f"worst.{name}", basis.worst),
            (f"flipped.{name}", basis.flipped),
            (f"theta.{name}", basis.theta),
            (f"adjusted.{name}", basis.adjusted),
        ]
    paid = "surviving_raw_bits" if cert.assignment_prob is None else "assignment_prob"  # the one the policy filled
    doc.append((paid, getattr(cert, paid)))
    doc += [(key, getattr(cert, key)) for key in _CERT_FIELDS]
    doc += [
        ("total_epsilon", total_epsilon(budget)),
        ("finite_size_floor", floor),
        ("note.finite_size_floor", FLOOR_NOTE),
        ("penalty_coeff", MIN_ENTROPY_COEFF),
        ("penalty_coeff_2dp", MIN_ENTROPY_COEFF_2DP),
    ]
    if not args.out:
        return doc, None
    header = ["n_z", *(key for key in _CERT_FIELDS if key != "n_z")]
    return doc, functools.partial(_save_csv, args.out, header, [[getattr(cert, key)] for key in header])


def cmd_compare(args) -> _Result:
    step = args.step
    with _stage("configuration"):
        if not 0.0 < step <= 1.0:
            raise ValueError(f"step must lie in (0, 1]: {step!r}")
        half = (1.0 + 1e-9) / step  # each axis holds 2 * floor(half) + 1 points
        if half >= (MAX_GRID_POINTS + 1) // 2:
            raise ValueError(f"step {step!r} puts more than {MAX_GRID_POINTS} points on each axis")
    with _stage("rate comparison"):
        half = int(math.floor(half))
        axis = np.round(np.arange(-half, half + 1) * step, 12)
        axis = axis[np.abs(axis) <= 1.0]  # the 1e-9 slack in half must not add points off the disk
        x, y = np.meshgrid(axis, axis, indexing="ij")  # x-major rows
        inside = x * x + y * y <= 1.0 + 1e-9
        x, y = x[inside], y[inside]
        p_x = (1.0 + x) / 2.0
        # the paper's witness rate -W = 1 - h(p_x), W = h(p_x) - log2(2); spelled 0 - W, as -W is -0.0 at p_x = 1/2
        r_u = 0.0 - (binary_entropy_arr(p_x) - 1.0)
        with _NUMPY_OPS.quiet():
            r_t = _coherence(0.5, _bloch_radius(p_x, (1.0 + y) / 2.0, 0.5, _NUMPY_OPS), _NUMPY_OPS)
        gap = r_t - r_u
    header = ["x", "y", "rate_witness", "rate_tomography", "gap"]
    columns = (x, y, r_u, r_t, gap)
    if not args.out:
        return (header, columns), None
    doc = [
        ("command", "compare"),
        ("config.step", step),
        ("points", x.size),
        ("min_gap", float(gap.min())),
        ("max_abs_gap_on_axis", float(np.abs(gap[y == 0.0]).max(initial=0.0))),
        ("out", args.out),
    ]
    return doc, functools.partial(_save_csv, args.out, header, columns)


def _simulate(args, flag: str) -> tuple[ExperimentConfig, ClickStats, list[tuple[str, object]]]:
    """The model's configuration and click statistics, with their config.* echo."""
    with _stage("configuration"):
        for name in ("N", "q", "mu0"):
            if getattr(args, name) is None:
                raise ValueError(f"{flag} needs --{name}")
        config = ExperimentConfig(n_pulses=args.N, q=args.q, mu0=args.mu0, eta=args.eta, p_mix=args.p)
    with _stage("simulation"):
        stats = mc_sample(config, args.seed) if args.mc else analytic_click_stats(config)
    echo = [(f"config.{key}", getattr(config, name)) for key, name in _CONFIG_ECHO]
    echo.append(("config.source", "mc" if args.mc else "analytic"))
    if args.mc:
        echo.append(("config.seed", args.seed))
    return config, stats, echo


def cmd_simulate(args) -> _Result:
    _, stats, echo = _simulate(args, "simulate")
    doc: list[tuple[str, object]] = [("command", "simulate"), *echo]
    for name in ("x", "y", "z"):
        counts = getattr(stats, name)
        doc += [
            (f"pulses.{name}", getattr(stats, f"pulses_{name}")),
            (f"counts.{name}.n0", counts.n0),
            (f"counts.{name}.n1", counts.n1),
            (f"counts.{name}.nd", counts.nd),
            (f"counts.{name}.total", counts.n),
        ]
        if counts.n > 0:
            doc.append((f"double_fraction.{name}", counts.nd / counts.n))
    if args.out and not args.mc:
        stats = ClickRecord(*(BasisCounts(*map(round, c)) for c in (stats.x, stats.y, stats.z)))
    return doc, functools.partial(write_counts, args.out, stats) if args.out else None


def cmd_optimize(args) -> _Result:
    with _stage("configuration"):
        budget = _budget_from_args(args)
        if not 0.0 < args.eta <= 1.0:
            raise ValueError(f"eta must lie in (0, 1]: {args.eta!r}")
        mu_grid = _parse_grid(args.mu_grid) if args.mu_grid else DEFAULT_MU_GRID
        q_grid = _parse_grid(args.q_grid) if args.q_grid else DEFAULT_Q_GRID
    with _stage("optimization"):
        result = optimize(
            n_pulses=args.N,
            p_mix=args.p,
            budget=budget,
            policy=args.policy,
            mu_grid=mu_grid,
            q_grid=q_grid,
            refine_levels=args.refine_levels,
        )
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
        ("config.mu_grid", f"{mu_grid[0]:.9g}:{mu_grid[-1]:.9g}:{len(mu_grid)}"),
        ("config.q_grid", f"{q_grid[0]:.9g}:{q_grid[-1]:.9g}:{len(q_grid)}"),
        ("config.refine_levels", args.refine_levels),
        ("mu_opt", result.mu_opt),
        ("q_opt", result.q_opt),
        ("mu0_opt", result.mu_opt / args.eta),
        ("rate_opt", result.rate_opt),
        ("evaluations", result.evaluations),
    ]
    save = functools.partial(_save_csv, args.trace_out, ["mu", "q", "rate"], result.trace.T)
    return doc, save if args.trace_out else None


def cmd_extract(args) -> _Result:
    with _stage("configuration"):
        if args.m is not None:
            m = args.m
        elif args.net_bits is not None:
            m = output_length(args.net_bits, args.eps2)
        else:
            raise ValueError("either --m or --net-bits is required")
        if m < 0:
            raise ValueError(f"output length must be nonnegative: {m}")
    with _stage("reading bits"):
        raw = read_bits(args.input, args.format, args.n)
        if args.n is not None and raw.size != args.n:
            raise ValueError(f"raw file holds {raw.size} bits, expected {args.n}")
        # an empty hash uses no seed bits
        seed = read_bits(args.seed_file, args.format, raw.size + m - 1) if m else np.zeros(0, dtype=np.uint8)
    with _stage("extraction"):
        spec = ToeplitzSpec(input_length=raw.size, output_length=m, seed=seed)
        result = toeplitz_extract(raw, spec)
    if not args.out:
        return format_bit_string(result) + "\n", None
    doc = [("command", "extract"), ("config.input", args.input), ("config.seed_file", args.seed_file)]
    doc += [("config.format", args.format), ("n", raw.size), ("m", m), ("out", args.out)]
    return doc, functools.partial(write_bits, args.out, result, args.format)


_COMMANDS = {
    "rate": cmd_rate,
    "compare": cmd_compare,
    "simulate": cmd_simulate,
    "optimize": cmd_optimize,
    "extract": cmd_extract,
}


def main(argv: list[str] | None = None) -> int:
    """Run one command line (sys.argv[1:] by default); returns the exit status, 0 or 2 after a staged error.

    A --config document is expanded into flags first.  A line that starts with
    a command name is read by that command's subparser alone: in one pass over
    its action table when every token is well formed (`_parse_plain`), and by
    argparse otherwise, which alone prints help and reads '--flag=value'
    tokens, so every --config run, and words every error[arguments] message.
    """
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        argv, defaults = _expand_config_args(argv)
        parser = _command_parser(argv[0] if argv else "")
        if parser is _shared_parser():
            args = parser.parse_args(argv)  # prints help or raises error[arguments]
        else:  # the top-level parser would hand the rest to this subparser
            fresh = functools.partial(argparse.Namespace, command=argv[0], **defaults)
            args = _parse_plain(parser, argv[1:], fresh()) or parser.parse_args(argv[1:], fresh())
        report, save = _COMMANDS[args.command](args)
        with _stage("writing output"):
            if save is not None:
                save()
            if isinstance(report, str):
                sys.stdout.write(report)
            elif isinstance(report, tuple):
                _write_csv(sys.stdout, *report)
            else:
                _emit(report, sys.stdout)
        return 0
    except CliError as e:
        print(f"error[{e.stage}]: {e.message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
