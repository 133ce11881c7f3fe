import argparse
import contextlib
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siqrng
from siqrng import acquisition, cli, extractor, optimizer
from siqrng.acquisition import DEFAULT_EPSILON, POLICIES, EpsilonBudget, parse_counts, read_counts
from siqrng.cli import _CSV_CHUNK_ROWS, CliError, _emit, _fmt, _parse_grid, _shared_parser, _write_csv, build_parser, main
from siqrng.detector import ExperimentConfig, analytic_click_stats
from siqrng.extractor import BIT_FORMATS, parse_bit_string, read_bits
from siqrng.optimizer import optimize

from conftest import QubitTomogram, coherence_rel_entropy, reference_csv_text, reference_emit, witness_coherence_bound

COUNTS_TEXT = "X,900,50,50\nY,450,450,100\nZ,4500,4500,1000\n"
REPO = Path(__file__).resolve().parents[1]
SMALL_GRID = ["--mu-grid", "0.5:1.5:0.25", "--q-grid", "0.01:0.05:0.02"]
INLINE_COUNTS = {"X": [900, 50, 50], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}

# X and Y relabeled, Z straddling 1/2 with doubles to assign
GOLDEN_COUNTS = "X,50000,900000,50000\nY,100000,800000,100000\nZ,4000000,4600000,1400000\n"
GOLDEN_REPORT = """\
command: rate
policy: assign
status: ok
config.counts: {path}
config.N: 20000000
config.eps1: 1e-10
config.eps2: 1e-10
config.eps_x: 1e-10
config.eps_y: 1e-10
config.eps_z: 1e-10
config.policy: assign
bounds.x.lower: 0.05
bounds.x.upper: 0.1
worst.x: 0.9
flipped.x: true
theta.x: 0.00339307021
adjusted.x: 0.89660693
bounds.y.lower: 0.1
bounds.y.upper: 0.2
worst.y: 0.8
flipped.y: true
theta.y: 0.00339307021
adjusted.y: 0.79660693
bounds.z.lower: 0.4
bounds.z.upper: 0.54
worst.z: 0.5
flipped.z: false
theta.z: 0.00107298301
adjusted.z: 0.5
assignment_prob: 0.714285714
coherence: 0.956504965
n_z: 10000000
entropy_bound: 9565049.65
finite_size_penalty: 184021.415
double_click_cost: 1208368.8
net_bits: 8172659.44
rate_per_pulse: 0.408632972
total_epsilon: 5e-10
finite_size_floor: 108
note.finite_size_floor: validity floor is ceil((8/5)*log2(2/eps1^2)), e.g. 108 at eps1 = 1e-10; the value 95 sometimes quoted for that setting understates the requirement
penalty_coeff: 7.08621321
penalty_coeff_2dp: 7.09
"""

# siqrng -h at 80 columns
TOP_LEVEL_HELP = """\
usage: siqrng [-h] {rate,compare,simulate,optimize,extract} ...

Source-independent quantum randomness certification and extraction.

positional arguments:
  {rate,compare,simulate,optimize,extract}
    rate                certified net randomness for one run
    compare             witness vs tomography rates on the Bloch x-y disk
    simulate            click statistics of the detector model
    optimize            best (mu, q) for a pulse budget
    extract             Toeplitz-hash a raw bit file

options:
  -h, --help            show this help message and exit
"""

# simulate --mc --N 1e6 --q 0.05 --mu0 1.4 --eta 0.6 --p 0.1 --seed 17; the pulse lines predate the
# one-multinomial outcome draw and pin the basis split it kept
GOLDEN_MC_SIMULATE = """\
command: simulate
config.N: 1000000
config.q: 0.05
config.mu0: 1.4
config.eta: 0.6
config.p: 0.1
config.mu: 0.84
config.source: mc
config.seed: 17
pulses.x: 49841
counts.x.n0: 26692
counts.x.n1: 1135
counts.x.nd: 617
counts.x.total: 28444
double_fraction.x: 0.0216917452
pulses.y: 50141
counts.y.n0: 11254
counts.y.n1: 11360
counts.y.nd: 5888
counts.y.total: 28502
double_fraction.y: 0.206581994
pulses.z: 900018
counts.z.n0: 203028
counts.z.n1: 203407
counts.z.nd: 105510
counts.z.total: 511945
double_fraction.z: 0.206096358
"""


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def inline_argv(tmp_path, route, document, flags=(("N", 12000),)):
    """rate with the JSON counts document as a --config file's counts key.

    Route "config" gives the other flags on the command line; route "inline" writes them into the document too.
    """
    config = tmp_path / "run.json"
    if route == "inline":
        config.write_text("{%s}" % ", ".join([f'"counts": {document}', *(f'"{k}": {json.dumps(v)}' for k, v in flags)]))
        return ["rate", "--config", str(config)]
    config.write_text('{"counts": %s}' % document)
    return ["rate", "--config", str(config), *(text for k, v in flags for text in (f"--{k}", str(v)))]


def parse_doc(out: str) -> dict:
    doc = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        doc[key] = value
    return doc


# Tokens the plain reader must leave to argparse, mixed into generated command lines.
NOISE = ["-h", "--help", "--", "-", "stray", "--bogus", "--N=1e6", "--simulate=1", "--mu", "-0.1", ""]
# An accepted value of each required flag.
VALID = {"N": "1e8", "input": "RAW", "seed_file": "SEED"}


def flag_tokens(action):
    """action's flag, followed by a value unless it is a switch: mostly valid, else malformed or flag-like."""
    flag = st.sampled_from(action.option_strings)
    if action.nargs == 0:
        return flag.map(lambda f: [f])
    if action.choices is not None:
        good, bad = st.sampled_from(action.choices), st.sampled_from(["bogus", "", "-x"])
    elif action.type is float:
        good = st.one_of(st.sampled_from(["1e6", "0.05", "nan", "1_0"]), st.floats(min_value=0.0).map(repr))
        bad = st.one_of(st.sampled_from(["-0.1", "-inf", "x", ""]), st.floats(max_value=-1e-300).map(repr))
    elif action.type is int:
        good, bad = st.integers(min_value=0).map(str), st.sampled_from(["-1", "3.5", " 7", "x", ""])
    else:
        good, bad = st.sampled_from(["F", "", "a=b", "out.csv"]), st.sampled_from(["-r.csv", "-", "--simulate"])
    return st.tuples(flag, st.one_of(good, good, good, bad)).map(list)


def typed(namespace: dict) -> dict:
    """namespace's values by type and text, so 1 differs from 1.0 and True, and nan equals nan."""
    return {key: (type(value), repr(value)) for key, value in namespace.items()}


def read_both(command, argv, **preset):
    """The plain reader's namespace (None: it defers) and argparse's as a dict (None: it refuses or prints help).

    The plain reader either defers or reads exactly what argparse reads from a fresh namespace.
    """
    parser = cli._command_parser(command)
    plain = cli._parse_plain(parser, argv, argparse.Namespace(command=command, **preset))
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            expected = vars(parser.parse_args(argv, argparse.Namespace(command=command, **preset)))
    except (CliError, SystemExit):
        expected = None
    assert plain is None or (expected is not None and typed(vars(plain)) == typed(expected))
    return plain, expected


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(COUNTS_TEXT)
    return path


class TestRate:
    def test_each_policy_reports_the_field_it_fills(self, capsys, counts_file):
        # assign prints assignment_prob and discard surviving_raw_bits, in one place of one key list
        assign = [line.split(":")[0] for line in GOLDEN_REPORT.splitlines()]
        for policy, paid in (("assign", "assignment_prob"), ("discard", "surviving_raw_bits")):
            rc, out, _ = run(capsys, ["rate", "--counts", str(counts_file), "--N", "12000", "--policy", policy])
            keys = [line.split(":")[0] for line in out.splitlines()]
            assert rc == 0 and keys == [paid if key == "assignment_prob" else key for key in assign]

    def test_from_counts_file(self, capsys, counts_file):
        rc, out, err = run(capsys, ["rate", "--counts", str(counts_file), "--N", "12000"])
        assert rc == 0 and err == ""
        doc = parse_doc(out)
        assert doc["bounds.x.lower"] == "0.9"
        assert doc["bounds.x.upper"] == "0.95"
        assert doc["worst.x"] == "0.9"
        assert doc["flipped.x"] == "false"
        theta = math.sqrt(math.log(1e10) / (2.0 * 1000.0))
        assert float(doc["theta.x"]) == pytest.approx(theta, rel=1e-8)
        assert float(doc["adjusted.x"]) == pytest.approx(0.9 - theta, rel=1e-8)
        assert doc["adjusted.y"] == "0.5"
        assert doc["n_z"] == "10000"
        assert doc["finite_size_floor"] == "108"
        assert doc["status"] == "no positive rate"
        assert "108" in doc["note.finite_size_floor"]
        assert "95" in doc["note.finite_size_floor"]

    def test_simulated_positive_rate(self, capsys):
        rc, out, _ = run(
            capsys,
            ["rate", "--simulate", "--N", "1e8", "--q", "0.01", "--mu0", "1.4", "--p", "0"],
        )
        assert rc == 0
        doc = parse_doc(out)
        assert doc["status"] == "ok"
        assert float(doc["rate_per_pulse"]) > 0.4
        assert float(doc["coherence"]) > 0.9
        assert float(doc["penalty_coeff"]) == pytest.approx(7.086213212654448, rel=1e-8)

    def test_policies_match_on_symmetric_source(self, capsys):
        base = ["rate", "--simulate", "--N", "1e8", "--q", "0.05", "--mu0", "1", "--p", "0.1"]
        _, out_d, _ = run(capsys, base + ["--policy", "discard"])
        _, out_a, _ = run(capsys, base + ["--policy", "assign"])
        rate_d = float(parse_doc(out_d)["rate_per_pulse"])
        rate_a = float(parse_doc(out_a)["rate_per_pulse"])
        assert rate_d == pytest.approx(rate_a, abs=1e-9)

    def test_deterministic_output(self, capsys):
        argv = [
            "rate", "--simulate", "--mc", "--seed", "9",
            "--N", "100000", "--q", "0.05", "--mu0", "1", "--p", "0.1",
        ]
        rc1, out1, _ = run(capsys, argv)
        rc2, out2, _ = run(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_csv_row(self, capsys, counts_file, tmp_path):
        out_csv = tmp_path / "report.csv"
        for policy in POLICIES:
            rc, out, _ = run(
                capsys,
                ["rate", "--counts", str(counts_file), "--N", "12000", "--policy", policy, "--out", str(out_csv)],
            )
            assert rc == 0
            lines = out_csv.read_text().splitlines()
            assert lines[0] == "n_z,coherence,entropy_bound,finite_size_penalty,double_click_cost,net_bits,rate_per_pulse"
            assert len(lines) == 2
            assert lines[1].split(",")[0] == "10000"
            doc = parse_doc(out)
            assert lines[1].split(",") == [doc[key] for key in lines[0].split(",")], policy

    def test_report_is_pinned(self, capsys, tmp_path):
        path = tmp_path / "golden.txt"
        path.write_text(GOLDEN_COUNTS)
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "2e7", "--policy", "assign"])
        assert rc == 0 and err == ""
        assert out == GOLDEN_REPORT.format(path=path)

    @pytest.mark.parametrize("policy", ["discard", "assign"])
    def test_nonphysical_counts_fail_at_coherence(self, capsys, tmp_path, policy):
        # every basis fully polarized: a Bloch radius of 1.72, no qubit state
        path = tmp_path / "counts.txt"
        path.write_text("X,1e6,0,0\nY,1e6,0,0\nZ,1e6,0,0\n")
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "1e7", "--policy", policy])
        assert rc == 2 and out == ""
        adjusted = "0.9966069297877924"  # 1 - theta, theta = sqrt(ln(1e10) / 2e6)
        assert err == (
            "error[coherence]: Bloch vector length 1.72029686757 exceeds 1: adjusted probabilities "
            f"(p_x={adjusted}, p_y={adjusted}, p_z={adjusted}) do not describe a qubit state\n"
        )

    @pytest.mark.parametrize("policy", ["discard", "assign"])
    def test_physicality_tolerance_boundary(self, capsys, tmp_path, policy):
        # 1e20 clicks per basis: theta is 3.4e-10, so the adjusted radius is 1 + 2e-9, then 1 + 5e-10
        path = tmp_path / "counts.txt"
        path.write_text("X,8.5355339164e19,1.4644660836e19,0\nY,8.5355339164e19,1.4644660836e19,0\nZ,5e19,5e19,0\n")
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "1e21", "--policy", policy])
        assert rc == 2 and out == ""
        assert err.startswith("error[coherence]: Bloch vector length 1.000000002 exceeds 1")
        path.write_text("X,8.5355339111e19,1.4644660889e19,0\nY,8.5355339111e19,1.4644660889e19,0\nZ,5e19,5e19,0\n")
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "1e21", "--policy", policy])
        assert rc == 0 and err == ""
        doc = parse_doc(out)
        assert doc["status"] == "ok" and doc["coherence"] == "1"  # the radius is clamped to 1

    def test_below_floor_is_refused(self, capsys, tmp_path):
        # n_z = 90 is below the floor of 108 at eps1 = 1e-10
        path = tmp_path / "counts.txt"
        path.write_text("X,900,50,50\nY,450,450,100\nZ,40,40,10\n")
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "12000"])
        assert rc == 2 and out == ""
        assert err == "error[rate assembly]: finite-size bound invalid: n_z = 90 is below the floor 108 for epsilon1 = 1e-10\n"

    def test_empty_basis_fails_at_squashing(self, capsys, tmp_path):
        path = tmp_path / "counts.txt"
        path.write_text("X,900,50,50\nY,0,0,0\nZ,4500,4500,1000\n")
        rc, out, err = run(capsys, ["rate", "--counts", str(path), "--N", "12000"])
        assert rc == 2 and out == ""
        assert err == "error[squashing]: no clicks in basis y\n"

    @pytest.mark.parametrize(
        "counts, pulses, basis",
        [
            ("X,0,0,0\nY,0,0,0\nZ,0,0,0\n", [], "x"),
            ("X,0,0,0\nY,0,0,0\nZ,0,0,0\n", ["--N", "1000"], "x"),
            ("X,0,0,0\nY,0,0,0\nZ,0,0,0\n", ["--N", "0"], "x"),
            ("X,900,50,50\nY,0,0,0\nZ,4500,4500,1000\n", ["--N", "100"], "y"),
        ],
        ids=["no-N", "N", "bad-N", "N-below-clicks"],
    )
    def test_empty_basis_is_named_before_the_pulse_count(self, capsys, tmp_path, counts, pulses, basis):
        # without --N the pulse count is the total of the clicks, 0 for the first file
        path = tmp_path / "counts.txt"
        path.write_text(counts)
        assert run(capsys, ["rate", "--counts", str(path), *pulses]) == (2, "", f"error[squashing]: no clicks in basis {basis}\n")

    def test_config_document_with_overrides(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "p": 0.1})
        )
        rc, out, _ = run(capsys, ["rate", "--config", str(config), "--q", "0.02"])
        assert rc == 0
        doc = parse_doc(out)
        assert doc["config.q"] == "0.02"  # flag wins over the document
        assert doc["config.N"] == "1000000"

    def test_inline_counts_in_config(self, capsys, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(
            json.dumps({"counts": {"X": [900, 50, 50], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}})
        )
        rc, out, _ = run(capsys, ["rate", "--config", str(config), "--N", "12000"])
        assert rc == 0
        assert parse_doc(out)["bounds.x.lower"] == "0.9"

    @pytest.mark.parametrize("route", ["inline", "config"])
    def test_inline_counts_print_like_a_counts_file(self, capsys, tmp_path, route):
        # integral counts are ints by every route, so totals past 1e9 print in full, not as 7.500007e+09
        document = '{"X":[1e9,9e8,1000],"Y":[9.5e8,9.5e8,1000],"Z":[1.9e9,1.8e9,5000]}'
        counts = tmp_path / "counts.txt"
        counts.write_text("X,1000000000,900000000,1000\nY,950000000,950000000,1000\nZ,1900000000,1800000000,5000\n")
        rc, out, err = run(capsys, inline_argv(tmp_path, route, document, [("policy", "discard")]))
        assert (rc, err) == (0, "")
        rc, file_out, _ = run(capsys, ["rate", "--counts", str(counts)])
        assert rc == 0
        doc = parse_doc(out)
        assert (doc["config.N"], doc["n_z"], doc["surviving_raw_bits"]) == ("7500007000", "3700005000", "3700000000")
        assert out.replace("config.counts: <inline>", f"config.counts: {counts}") == file_out

    def test_missing_source_fails(self, capsys):
        rc, _, err = run(capsys, ["rate", "--N", "1000"])
        assert rc == 2
        assert err.startswith("error[")

    def test_missing_file_fails(self, capsys):
        rc, _, err = run(capsys, ["rate", "--counts", "/nonexistent/counts.txt"])
        assert rc == 2
        assert "error[reading counts]" in err

    @pytest.mark.parametrize("n_pulses", ["10", "11999", "nan", "inf"])
    def test_counts_must_fit_pulse_count(self, capsys, counts_file, n_pulses):
        # the file records 12000 clicks, and each pulse yields at most one; certify refuses, not the CLI
        rc, out, err = run(capsys, ["rate", "--counts", str(counts_file), "--N", n_pulses])
        assert rc == 2 and out == ""
        if n_pulses in ("nan", "inf"):
            assert err == f"error[certification]: n_pulses must be finite and positive: {n_pulses}\n"
        else:
            assert err == f"error[certification]: counts hold 12000 clicks, more than the {n_pulses} pulses\n"

    @pytest.mark.parametrize("flags", [["--mu0", "inf"], ["--N", "nan"]], ids=["mu0-inf", "N-nan"])
    def test_non_finite_source_fails_at_configuration(self, capsys, flags):
        argv = ["rate", "--simulate", "--N", "1e8", "--q", "0.01", "--mu0", "1.4"] + flags
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error[configuration]")

    def test_paper_scale_monte_carlo_under_a_second(self, capsys):
        argv = ["rate", "--simulate", "--mc", "--seed", "3", "--N", "1e10", "--q", "0.01", "--mu0", "1.4"]
        start = time.perf_counter()
        rc, out, _ = run(capsys, argv)
        elapsed = time.perf_counter() - start
        assert rc == 0
        assert parse_doc(out)["status"] == "ok"
        assert elapsed < 1.0

    def test_large_mu0_is_simulated(self, capsys):
        # the sampler once summed over photon numbers and refused mu0 above about 9.5e4
        flags = ["--mc", "--seed", "5", "--N", "1e6", "--q", "0.01", "--mu0", "2e5", "--p", "0.1"]
        rc, out, err = run(capsys, ["rate", "--simulate", *flags])
        assert (rc, err) == (0, "")
        assert parse_doc(out)["status"] == "no positive rate"
        rc, out, err = run(capsys, ["simulate", *flags])
        assert (rc, err) == (0, "")
        doc = parse_doc(out)
        expected = analytic_click_stats(ExperimentConfig(n_pulses=1e6, q=0.01, mu0=2e5, eta=1.0, p_mix=0.1))
        for name in ("x", "y", "z"):
            for field in ("n0", "n1", "nd"):
                mean = getattr(getattr(expected, name), field)
                sigma = math.sqrt(mean * (1.0 - mean / 1e6))
                assert abs(int(doc[f"counts.{name}.{field}"]) - mean) <= 5.0 * max(sigma, 1.0), (name, field)

    @pytest.mark.parametrize("mc", [[], ["--mc"]], ids=["analytic", "mc"])
    def test_tiny_mu0_fails_at_the_rate(self, capsys, mc):
        # the doubles, once 1 + E - 2 Eh, rounded to -1.1e-11 here and failed the simulation
        argv = ["rate", "--simulate", *mc, "--N", "1e6", "--q", "0.05", "--mu0", "1.0003984502978545e-12"]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        if mc:
            assert err == "error[squashing]: no clicks in basis x\n"
        else:
            assert err.startswith("error[rate assembly]: finite-size bound invalid: n_z = 9.00")

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--counts", "F", "--bogus"],
            ["rate", "--config", "WORKERS"],
            ["rate", "--counts", "F", "--policy", "bogus"],
            ["rate", "--counts", "F", "--N", "abc"],
            [],
        ],
        ids=["unknown-flag", "config-workers-key", "bad-policy", "bad-float", "no-subcommand"],
    )
    def test_argument_errors_are_one_staged_line(self, capsys, counts_file, tmp_path, argv):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "workers": 2}))
        argv = [{"F": str(counts_file), "WORKERS": str(config)}.get(arg, arg) for arg in argv]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith("error[arguments]: ")
        assert "usage:" not in err

    def test_help_still_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["rate", "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: siqrng rate")

    @pytest.mark.parametrize(
        "entry, problem",
        [
            *((entry, "must be finite and nonnegative") for entry in ("NaN", "Infinity", "-Infinity", "-50")),
            *((entry, "is not a number") for entry in ("true", '"900"', "null", "[50]")),
        ],
        ids=["NaN", "Infinity", "-Infinity", "-50", "true", '"900"', "null", "[50]"],
    )
    @pytest.mark.parametrize("route", ["inline", "config"])
    def test_bad_inline_counts_fail_while_reading(self, capsys, tmp_path, entry, problem, route):
        # each entry is read as its JSON text in a counts file: NaN used to reach the worst-case
        # stage as the interval [nan, nan], and true and "900" used to certify as 1 and 900
        document = '{"X":[900,50,%s],"Y":[450,450,100],"Z":[4500,4500,1000]}' % entry
        rc, out, err = run(capsys, inline_argv(tmp_path, route, document))
        assert rc == 2 and out == ""
        assert err == f"error[reading counts]: basis X: count {entry!r} {problem}\n"

    @pytest.mark.parametrize(
        "bases, line, key, message",
        [
            (["X", "Y", "Z", "W"], "line 4", "basis W", "unknown basis 'W'"),
            (["x", "X", "Y", "Z"], "line 2", "basis X", "duplicate basis 'X'"),
        ],
        ids=["unknown", "repeated"],
    )
    @pytest.mark.parametrize("route", ["inline", "config", "file"])
    def test_basis_keys_are_checked_as_in_a_file(self, capsys, tmp_path, bases, line, key, message, route):
        # an unknown key and the second of x and X used to be dropped silently
        if route == "file":
            counts = tmp_path / "counts.txt"
            counts.write_text("".join(f"{basis},900,50,50\n" for basis in bases))
            argv, where = ["rate", "--counts", str(counts), "--N", "12000"], line
        else:
            argv, where = inline_argv(tmp_path, route, json.dumps({basis: [900, 50, 50] for basis in bases})), key
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err == f"error[reading counts]: {where}: {message}\n"

    @pytest.mark.parametrize(
        "document, stage",
        [
            ("[900, 50, 50]", "config"),  # a list is no flag value; only an object is read as inline counts
            ('{"X": 5, "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}', "reading counts"),
            ('{"X": [900, 50, [50]], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}', "reading counts"),
            ('{"X": [900, 50, 1%s], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}' % ("0" * 400), "reading counts"),
        ],
        ids=["not-an-object", "not-a-triple", "not-a-number", "beyond-float"],
    )
    def test_malformed_inline_counts_fail_while_reading(self, capsys, tmp_path, document, stage):
        # each of these used to escape main as an uncaught TypeError, AttributeError or OverflowError
        rc, out, err = run(capsys, inline_argv(tmp_path, "config", document))
        assert rc == 2 and out == ""
        assert err.startswith(f"error[{stage}]: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--counts", "F", "--N", "12000", "--simulate", "--mc", "--q", "0.05", "--mu0", "1"],
            ["rate", "--counts", "F", "--N", "12000", "--simulate", "--q", "0.05", "--mu0", "1"],
            ["rate", "--counts", "F", "--N", "12000", "--mc", "--seed", "3"],
            ["rate", "--config", "INLINE", "--simulate", "--q", "0.05", "--mu0", "1"],
            ["rate", "--config", "INLINE", "--mc"],
        ],
        ids=["counts-simulate-mc", "counts-simulate", "counts-mc", "inline-simulate", "inline-mc"],
    )
    def test_one_source_per_run(self, capsys, counts_file, tmp_path, argv):
        # with --simulate the counts used to be certified and the model ignored; --mc alone was ignored
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"counts": INLINE_COUNTS, "N": 12000}))
        argv = [{"F": str(counts_file), "INLINE": str(config)}.get(arg, arg) for arg in argv]
        assert run(capsys, argv) == (2, "", "error[configuration]: a counts file or object excludes --simulate and --mc\n")

    def test_mc_without_a_source_asks_for_one(self, capsys):
        expected = (2, "", "error[configuration]: one of --counts or --simulate is required\n")
        assert run(capsys, ["rate", "--mc", "--seed", "3", "--N", "1e6"]) == expected


class TestConfig:
    """A --config document is read strictly: each key once, each value of its flag's JSON type."""

    @pytest.fixture
    def config(self, tmp_path):
        def write(text: str) -> str:
            path = tmp_path / "run.json"
            path.write_text(text)
            return str(path)

        return write

    def test_counts_string_is_a_file_path(self, capsys, config, counts_file):
        # the string used to be read as an inline document and refused as not a JSON object
        argv = ["rate", "--config", config(json.dumps({"counts": str(counts_file), "N": 12000}))]
        expected = run(capsys, ["rate", "--counts", str(counts_file), "--N", "12000"])
        assert expected[0] == 0 and run(capsys, argv) == expected

    @pytest.mark.parametrize("counts", [INLINE_COUNTS, {"X": [1, 1, 1]}, "no-such-file"], ids=["object", "bad-object", "path"])
    def test_counts_flag_beats_the_document(self, capsys, config, counts_file, counts):
        argv = ["rate", "--counts", str(counts_file), "--N", "12000"]
        expected = run(capsys, argv)
        path = config(json.dumps({"counts": counts, "policy": "discard"}))
        assert expected[0] == 0
        assert run(capsys, ["rate", "--config", path, *argv[1:]]) == expected
        assert run(capsys, ["--config", path, *argv]) == expected

    @pytest.mark.parametrize(
        "text, key",
        [
            ('{"N": 12000, "N": 99999999, "counts": {"X": [900,50,50], "Y": [450,450,100], "Z": [4500,4500,1000]}}', "N"),
            ('{"counts": {"X": [900,50,50], "Y": [450,450,100], "X": [40,900,60], "Z": [4500,4500,1000]}, "N": 12000}', "X"),
            ('{"N": 12000, "counts": {"X": [900,50,50], "Y": [450,450,100], "Z": [4500,4500,1000]}, "N": 12000}', "N"),
        ],
        ids=["top-level", "nested", "same-value"],
    )
    def test_repeated_key_is_refused(self, capsys, config, text, key):
        # json.loads keeps the last of two equal keys: these used to certify 99999999 pulses and the second X
        path = config(text)
        assert run(capsys, ["rate", "--config", path]) == (2, "", f"error[config]: cannot read {path}: repeated key {key!r}\n")

    @pytest.mark.parametrize(
        "argv, key, value, kind",
        [
            (["optimize", "--N", "1e8", *SMALL_GRID], "trace_out", None, "a string"),
            (["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1"], "out", None, "a string"),
            (["rate", "--simulate", "--N", "1e6", "--mu0", "1"], "q", [0.05], "a number"),
            (["rate", "--simulate", "--N", "1e6", "--q", "0.05"], "mu0", {"value": 1}, "a number"),
            (["rate", "--N", "12000"], "counts", None, "a string"),
            (["rate", "--N", "12000"], "counts", [INLINE_COUNTS["X"]], "a string"),
        ],
        ids=["optimize-null-trace-out", "rate-null-out", "list", "object", "null-counts", "list-counts"],
    )
    def test_null_list_and_object_values_are_refused(self, capsys, monkeypatch, tmp_path, config, argv, key, value, kind):
        # str(None) used to turn a null --out or --trace-out into a file named None
        monkeypatch.chdir(tmp_path)
        path = config(json.dumps({key: value}))
        expected = f"error[config]: {key} must be {kind}\n"
        assert run(capsys, [argv[0], "--config", path, *argv[1:]]) == (2, "", expected)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    @pytest.mark.parametrize(
        "document, message",
        [
            ({"simulate": True, "N": "1e6", "q": 0.05, "mu0": 1.0}, "N must be a number"),
            ({"simulate": True, "N": 1e6, "q": 0.05, "mu0": True}, "mu0 must be a number"),
            ({"simulate": True, "mc": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "seed": "3"}, "seed must be a number"),
            ({"simulate": 1, "N": 1e6, "q": 0.05, "mu0": 1.0}, "simulate must be a boolean"),
            ({"simulate": "true", "N": 1e6, "q": 0.05, "mu0": 1.0}, "simulate must be a boolean"),
            ({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "policy": 1}, "policy must be a string"),
            ({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "out": 5}, "out must be a string"),
            ({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "out": False}, "out must be a string"),
        ],
        ids=["numeric-string", "numeric-boolean", "int-string", "switch-number", "switch-string",
             "choice-number", "path-number", "path-boolean"],
    )  # fmt: skip
    def test_each_value_has_its_flags_kind(self, capsys, monkeypatch, tmp_path, config, document, message):
        # the value went through str() to argparse: "1e6" certified 1e6 pulses, and 5 wrote a file named 5
        monkeypatch.chdir(tmp_path)
        path = config(json.dumps(document))
        assert run(capsys, ["rate", "--config", path]) == (2, "", f"error[config]: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]

    def test_numbers_of_either_json_kind_fill_numeric_flags(self, capsys, config):
        # argparse alone converts the value: the int 1000000 and the float 1e6 give one --N
        expected = run(capsys, ["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--seed", "3"])
        for n_pulses in (1000000, 1e6):
            path = config(json.dumps({"simulate": True, "N": n_pulses, "q": 0.05, "mu0": 1, "seed": 3}))
            assert run(capsys, ["rate", "--config", path]) == expected
        path = config(json.dumps({"simulate": True, "mc": True, "N": 1e6, "q": 0.05, "mu0": 1, "seed": 3.5}))
        assert run(capsys, ["rate", "--config", path]) == (
            2, "", "error[arguments]: argument --seed: invalid int value: '3.5'\n"
        )

    def test_values_that_begin_with_a_dash_are_values(self, capsys, monkeypatch, tmp_path, config):
        # each value used to be a token of its own, which argparse read as a flag: expected one argument
        monkeypatch.chdir(tmp_path)
        simulated = {"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0}
        rc, out, err = run(capsys, ["rate", "--config", config(json.dumps({**simulated, "out": "-r.csv"}))])
        assert (rc, err) == (0, "") and (tmp_path / "-r.csv").read_text().startswith("n_z,")
        expected = run(capsys, ["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--p=-1e-05"])
        assert expected == (2, "", "error[configuration]: p_mix outside [0, 1]: -1e-05\n")
        assert run(capsys, ["rate", "--config", config(json.dumps({**simulated, "p": -1e-05}))]) == expected

    @pytest.mark.parametrize("command", ["optimize", "simulate", "compare", "extract"])
    def test_counts_object_is_read_by_rate_only(self, capsys, config, command):
        path = config(json.dumps({"counts": INLINE_COUNTS}))
        expected = (2, "", "error[arguments]: only rate reads a counts object\n")
        assert run(capsys, [command, "--config", path]) == expected
        assert run(capsys, ["--config", path, command]) == expected


NON_FINITE = st.sampled_from(["nan", "inf", "-inf"])
SOURCE_FLAGS = {"--N": "1e8", "--q": "0.01", "--mu0": "1.4", "--eta": "0.9", "--p": "0.1", "--eps1": "1e-10"}
COMMANDS = {
    "rate": (["rate", "--simulate"], SOURCE_FLAGS),
    "rate-mc": (["rate", "--simulate", "--mc"], SOURCE_FLAGS),
    "optimize": (["optimize"], {k: SOURCE_FLAGS[k] for k in ("--N", "--eta", "--p", "--eps1")}),
}


@given(command=st.sampled_from(sorted(COMMANDS)), data=st.data())
def test_non_finite_inputs_never_certify(command, data):
    prefix, defaults = COMMANDS[command]
    names = data.draw(st.lists(st.sampled_from(sorted(defaults)), min_size=1, max_size=3, unique=True))
    flags = dict(defaults, **{name: data.draw(NON_FINITE) for name in names})
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(prefix + [f"{name}={value}" for name, value in flags.items()])  # '=' lets '-inf' through
    if rc == 0:
        doc = parse_doc(out.getvalue())
        assert float(doc["net_bits" if command != "optimize" else "rate_opt"]) <= 0.0
    else:
        assert rc == 2 and err.getvalue().startswith("error[")


EPS_FLAGS = ("--eps1", "--eps2", "--eps-x", "--eps-y", "--eps-z")
OUT_OF_DOMAIN = {
    "q": st.builds(lambda v: {"--q": v}, st.floats(min_value=0.5, max_value=1e6)),
    "eta": st.builds(lambda v: {"--eta": v}, st.floats(min_value=1.0, max_value=1e6, exclude_min=True)),
    "eps": st.builds(lambda k, v: {k: v}, st.sampled_from(EPS_FLAGS), st.floats(min_value=1.0, max_value=1e6)),
    # every epsilon in (0, 1), but their sum is 1 or more
    "budget": st.builds(lambda v: dict(zip(EPS_FLAGS, v)), st.lists(st.floats(0.2, 0.999), min_size=5, max_size=5)),
}


@given(command=st.sampled_from(["rate", "optimize"]), kind=st.sampled_from(sorted(OUT_OF_DOMAIN)), data=st.data())
def test_out_of_domain_inputs_fail_staged(command, kind, data):
    prefix, defaults = COMMANDS[command]
    if kind == "q" and command == "optimize":  # optimize searches over q
        return
    flags = dict(defaults, **data.draw(OUT_OF_DOMAIN[kind]))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(prefix + [f"{name}={value}" for name, value in flags.items()])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error[configuration]: ") and err.getvalue().count("\n") == 1


BAD_COUNT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.integers(max_value=-1),
)


@given(
    entries=st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True),
    route=st.sampled_from(["inline", "file"]),
    data=st.data(),
)
def test_bad_counts_never_certify(entries, route, data):
    counts = [[900, 50, 50], [450, 450, 100], [4500, 4500, 1000]]
    for entry in entries:
        counts[entry // 3][entry % 3] = data.draw(BAD_COUNT)
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if route == "inline":
            config = Path(tmp) / "run.json"
            config.write_text(json.dumps({"counts": dict(zip("XYZ", counts))}))
            source = ["--config", str(config)]
        else:
            path = Path(tmp) / "counts.txt"
            path.write_text("".join(f"{b},{n0!r},{n1!r},{nd!r}\n" for b, (n0, n1, nd) in zip("XYZ", counts)))
            source = ["--counts", str(path)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(["rate", *source, "--N", "12000"])
    assert rc == 2 and out.getvalue() == ""
    assert err.getvalue().startswith("error[reading counts]")


class TestParser:
    def test_reused_parser_matches_a_fresh_one(self, capsys, counts_file, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0, "policy": "assign"}))
        sequence = [
            ["rate", "--config", str(config)],
            ["rate", "--simulate", "--mc", "--seed", "5", "--N", "1e6", "--q", "0.05", "--mu0", "1"],
            ["rate", "--counts", str(counts_file), "--policy", "assign"],
            ["rate", "--counts", str(counts_file), "--policy", "bogus"],
            ["rate", "--counts", str(counts_file)],
        ]
        _shared_parser.cache_clear()
        shared = [run(capsys, argv) for argv in sequence]
        assert _shared_parser.cache_info().misses == 1
        assert [rc for rc, _, _ in shared] == [0, 0, 0, 2, 0]
        for argv, result in zip(sequence, shared):
            _shared_parser.cache_clear()
            assert run(capsys, argv) == result
        assert _shared_parser() is _shared_parser()

    def test_public_builder_returns_a_fresh_tree(self):
        # a caller that edits its tree must not change what main parses with
        mine = build_parser()
        assert mine is not build_parser() and mine is not _shared_parser()
        mine.add_argument("--extra")
        assert mine.parse_args(["--extra=1", "rate", "--simulate"]).extra == "1"
        with pytest.raises(CliError, match="unrecognized arguments: --extra=1"):
            _shared_parser().parse_args(["--extra=1", "rate", "--simulate"])

    def test_format_choices_are_the_extractors(self):
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        fmt = next(a for a in sub.choices["extract"]._actions if a.dest == "format")
        assert fmt.choices is BIT_FORMATS

    def test_epsilon_defaults_are_the_librarys(self):
        # rate's and optimize's five budget flags and extract's --eps2
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        names = {f.name for f in dataclasses.fields(EpsilonBudget)}
        defaults = [a.default for p in sub.choices.values() for a in p._actions if a.dest in names]
        assert len(defaults) == 11 and set(defaults) == {DEFAULT_EPSILON}
        assert set(dataclasses.astuple(EpsilonBudget.uniform())) == {DEFAULT_EPSILON}

    def test_policy_choices_are_certifys(self):
        # a policy that certify accepts is reachable from both subcommands
        sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
        for command in ("rate", "optimize"):
            policy = next(a for a in sub.choices[command]._actions if a.dest == "policy")
            assert tuple(policy.choices) == POLICIES

    @pytest.mark.parametrize(
        "argv, unrecognized",
        [
            (["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu", "1.0", "--eta", "0.5"], "--mu 1.0"),
            (["rate", "--config", "MU"], "--mu=0.7"),
            (["rate", "--counts", "F", "--pol", "assign"], "--pol assign"),
            (["rate", "--he"], "--he"),
            (["simulate", "--N", "1e6", "--q", "0.05", "--mu", "1"], "--mu 1"),
            (["optimize", "--N", "1e8", "--refine", "1"], "--refine 1"),
            (["compare", "--st", "0.5"], "--st 0.5"),
            (["extract", "--input", "RAW", "--seed-file", "SEED", "--m", "1", "--form", "ascii"], "--form ascii"),
        ],
        ids=["rate-mu", "config-mu", "rate-pol", "rate-he", "simulate-mu", "optimize-refine", "compare-st", "extract-form"],
    )
    def test_flags_match_by_full_name_only(self, capsys, stage_files, tmp_path, argv, unrecognized):
        # a prefix used to select the one flag it begins: --mu set mu0, the source intensity, not the detected mu
        config = tmp_path / "mu.json"
        config.write_text(json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "eta": 0.5, "mu": 0.7}))
        argv = [{**stage_files, "MU": str(config)}.get(arg, arg) for arg in argv]
        assert run(capsys, argv) == (2, "", f"error[arguments]: unrecognized arguments: {unrecognized}\n")

    def test_built_on_first_use_not_at_import(self):
        src = str(Path(siqrng.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import siqrng.cli; print(siqrng.cli._shared_parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "0"

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--simulate", "--mc", "--N", "1e6", "--q", "0.05", "--mu0", "1.4", "--p", "0.1", "--seed", "3"],
            ["rate", "--counts", "F", "--policy", "assign"],
            ["rate", "--config", "CONFIG"],
            ["--config", "CONFIG", "rate"],
            ["compare", "--step", "0.5"],
            ["simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1"],
            ["optimize", "--N", "1e8", *SMALL_GRID],
            ["extract", "--input", "RAW", "--seed-file", "SEED", "--n", "3", "--m", "2"],
            ["rate", "--counts", "F", "--bogus"],
        ],
        ids=["rate-mc", "rate-counts", "rate-config", "config-first", "compare", "simulate", "optimize", "extract", "bad"],
    )
    def test_commands_skip_the_top_level_parser(self, capsys, monkeypatch, stage_files, tmp_path, argv):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0}))
        top, parsed = _shared_parser(), []
        real = argparse.ArgumentParser.parse_known_args

        def spy(parser, *args, **kwargs):
            parsed.append(parser)
            return real(parser, *args, **kwargs)

        monkeypatch.setattr(cli._ArgumentParser, "parse_known_args", spy)
        rc, _, _ = run(capsys, [{**stage_files, "CONFIG": str(config)}.get(arg, arg) for arg in argv])
        command = "rate" if argv[0] == "--config" else argv[0]
        assert rc == (2 if "--bogus" in argv else 0)
        # a well-formed line is read from the subparser's action table; the --config document's --flag=value
        # tokens and the bad flag go to the subparser's argparse, never to the top level
        assert [parser.prog for parser in parsed] == ([f"siqrng {command}"] if {"CONFIG", "--bogus"} & {*argv} else [])
        assert top not in parsed

    @settings(max_examples=200)
    @given(data=st.data())
    def test_plain_reader_agrees_with_argparse(self, data):
        command = data.draw(st.sampled_from(sorted(cli._COMMANDS)))
        actions = [action for action in cli._command_parser(command)._actions if action.dest != argparse.SUPPRESS]
        items = data.draw(st.lists(st.sampled_from(actions).flatmap(flag_tokens), max_size=6))
        if data.draw(st.booleans()):
            items.insert(data.draw(st.integers(0, len(items))), [data.draw(st.sampled_from(NOISE))])
        drop_required = not data.draw(st.integers(0, 3))
        required = [] if drop_required else [[a.option_strings[0], VALID[a.dest]] for a in actions if a.required]
        argv = [token for item in required + items for token in item]
        preset = {"counts": INLINE_COUNTS} if command == "rate" and data.draw(st.booleans()) else {}
        read_both(command, argv, **preset)

    @pytest.mark.parametrize(
        "command, argv, read, accepted",
        [
            ("rate", ["--simulate", "--mc", "--N", "1e6", "--q", "0.05", "--mu0", "1.4", "--seed", "3"], True, True),
            ("optimize", ["--N", "1e8", "--policy", "assign", "--N", "1e6", "--refine-levels", " 2"], True, True),
            ("rate", ["--simulate", "--p", "-0.1"], False, True),
            ("rate", ["--counts", "F", "--out", "-r.csv"], False, False),
            ("rate", ["--counts", ""], True, True),
            ("rate", ["--simulate", "--counts"], False, False),
            ("rate", ["--simulate", "--mu", "1"], False, False),
            ("rate", ["-h"], False, False),
            ("extract", ["--help"], False, False),
            ("extract", ["--input", "RAW", "--m", "1"], False, False),
            ("rate", ["--counts", "F", "--policy", "bogus"], False, False),
            ("rate", ["--simulate", "--seed", "3.5"], False, False),
            ("rate", ["--N=1e6"], False, True),
            ("rate", ["--simulate=1"], False, False),
            ("rate", ["--simulate", "--"], False, None),  # argparse's reading of '--' differs across versions
            ("compare", ["stray"], False, False),
        ],
        ids=[
            "well-formed", "repeated-flag", "negative-value", "dash-value", "empty-value", "no-value", "prefix",
            "short-help", "long-help", "required-missing", "bad-choice", "bad-int", "flag-equals-value",
            "switch-equals-value", "double-dash", "positional",
        ],
    )
    def test_plain_reader_defers_what_argparse_alone_reads(self, command, argv, read, accepted):
        plain, expected = read_both(command, argv)
        assert (plain is not None) == read
        assert accepted is None or (expected is not None) == accepted

    def test_plain_reader_keeps_the_config_counts_object(self):
        plain, _ = read_both("rate", ["--N", "12000"], counts=INLINE_COUNTS)
        assert plain.counts is INLINE_COUNTS and plain.policy == "discard" and plain.eps1 == DEFAULT_EPSILON

    @pytest.mark.parametrize(
        "argv, expected",
        [
            ([], (2, "", "error[arguments]: the following arguments are required: command\n")),
            (
                ["bogus"],
                (
                    2,
                    "",
                    "error[arguments]: argument command: invalid choice: 'bogus' "
                    "(choose from 'rate', 'compare', 'simulate', 'optimize', 'extract')\n",
                ),
            ),
            (["--extra=1", "rate", "--simulate"], (2, "", "error[arguments]: unrecognized arguments: --extra=1\n")),
            (["-h"], (0, TOP_LEVEL_HELP, "")),
        ],
        ids=["empty", "unknown-command", "top-level-flag", "help"],
    )
    def test_other_argv_goes_to_the_top_level(self, capsys, monkeypatch, argv, expected):
        monkeypatch.setenv("COLUMNS", "80")
        try:
            result = run(capsys, argv)
        except SystemExit as e:
            result = (e.code, *capsys.readouterr())
        assert result == expected


class BrokenStdout(io.StringIO):
    """A stdout whose reader has gone away, as under `siqrng compare | head -c 0`."""

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


@pytest.fixture
def stage_files(tmp_path, counts_file):
    """Stand-ins for the F, RAW, SEED, BAD, MISSING and LIST placeholders of staged-failure argv lists."""
    (tmp_path / "raw.txt").write_text("101")
    (tmp_path / "seed.txt").write_text("1011")
    (tmp_path / "list.json").write_text("[1, 2]")
    return {
        "F": str(counts_file),
        "RAW": str(tmp_path / "raw.txt"),
        "SEED": str(tmp_path / "seed.txt"),
        "BAD": str(tmp_path / "no-such-dir" / "out"),
        "MISSING": str(tmp_path / "missing.json"),
        "LIST": str(tmp_path / "list.json"),
    }


# One successful command line per subcommand, and the flag naming the file it can write.
COMMAND_ARGVS = {
    "rate": (["rate", "--counts", "F", "--N", "12000"], "--out"),
    "simulate": (["simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1"], "--out"),
    "optimize": (["optimize", "--N", "1e8", *SMALL_GRID], "--trace-out"),
    "compare": (["compare", "--step", "0.5"], "--out"),
    "extract": (["extract", "--input", "RAW", "--seed-file", "SEED", "--n", "3", "--m", "2"], "--out"),
}


class TestStages:
    """Every failure names the pipeline stage that refused it."""

    @pytest.mark.parametrize("name", COMMAND_ARGVS)
    def test_failing_stdout_is_writing_output(self, capsys, monkeypatch, stage_files, name):
        monkeypatch.setattr(sys, "stdout", BrokenStdout())
        assert main([stage_files.get(arg, arg) for arg in COMMAND_ARGVS[name][0]]) == 2
        assert capsys.readouterr().err == "error[writing output]: [Errno 32] Broken pipe\n"

    @pytest.mark.parametrize("name", COMMAND_ARGVS)
    def test_commands_write_nothing(self, capsys, monkeypatch, stage_files, tmp_path, name):
        # a command returns its report and its file writer; only main writes, the file first
        argv, flag = COMMAND_ARGVS[name]
        argv = [stage_files.get(arg, arg) for arg in argv]
        returned, written = tmp_path / "returned", tmp_path / "written"
        args = _shared_parser().parse_args([*argv, flag, str(returned)])
        with monkeypatch.context() as patch:
            patch.setattr(sys, "stdout", BrokenStdout())
            report, save = cli._COMMANDS[name](args)
        assert report and not returned.exists()
        save()
        assert main([*argv, flag, str(written)]) == 0
        capsys.readouterr()
        assert returned.read_bytes() == written.read_bytes()

    @pytest.mark.parametrize(
        "stage, argv",
        [
            ("writing output", ["rate", "--counts", "F", "--N", "12000", "--out", "BAD"]),
            ("writing output", ["simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--out", "BAD"]),
            ("writing output", ["compare", "--step", "0.5", "--out", "BAD"]),
            ("writing output", ["optimize", "--N", "1e8", *SMALL_GRID, "--trace-out", "BAD"]),
            ("writing output", [*COMMAND_ARGVS["extract"][0], "--out", "BAD"]),
            ("config", ["rate", "--config", "MISSING"]),
            ("config", ["rate", "--config", "LIST"]),
            ("configuration", ["rate", "--N", "1000"]),
            ("configuration", ["rate", "--simulate", "--N", "1e6", "--q", "0.05"]),
            ("simulation", ["rate", "--simulate", "--mc", "--N", "1000.5", "--q", "0.01", "--mu0", "1"]),
            ("optimization", ["optimize", "--N", "1e8", "--refine-levels", "-1"]),
            ("optimization", ["optimize", "--N", "nan"]),
            ("reading bits", ["extract", "--input", "RAW", "--seed-file", "SEED", "--n", "2", "--m", "1"]),
            ("reading bits", ["extract", "--input", "RAW", "--seed-file", "SEED", "--format", "packed", "--m", "1"]),
            ("extraction", ["extract", "--input", "RAW", "--seed-file", "SEED", "--m", "4"]),
        ],
        ids=[
            "rate-out", "simulate-out", "compare-out", "optimize-trace-out", "extract-out", "config-missing",
            "config-not-object", "rate-no-source", "simulate-no-mu0", "mc-fractional-pulses", "negative-refine-levels",
            "nan-pulses", "extract-wrong-n", "packed-without-n", "extract-m-above-n",
        ],
    )
    def test_failure_stage(self, capsys, stage_files, stage, argv):
        rc, out, err = run(capsys, [stage_files.get(arg, arg) for arg in argv])
        assert rc == 2
        assert err.startswith(f"error[{stage}]: ") and err.count("\n") == 1
        if stage == "writing output":
            assert out == ""  # the file is written before the report, so a failed write prints none

    def test_config_that_is_not_utf8_fails_at_config(self, capsys, tmp_path):
        # a UnicodeDecodeError used to escape main as a traceback with exit status 1
        config = tmp_path / "run.json"
        config.write_bytes(b'{"simulate": true, "N": 1e6\xff}')
        rc, out, err = run(capsys, ["rate", "--config", str(config)])
        assert (rc, out) == (2, "")
        assert err.startswith(f"error[config]: cannot read {config}: ") and "can't decode byte 0xff" in err


class TestResults:
    """The committed CSVs under results/ are what the scripts and the CLI write today."""

    @pytest.mark.parametrize("name", ["pulse_sweep", "intensity_sweep", "compare_rates"])
    def test_reproduced_byte_for_byte(self, capsys, monkeypatch, tmp_path, name):
        dest = tmp_path / f"{name}.csv"
        if name == "compare_rates":
            assert main(["compare", "--step", "0.02", "--out", str(dest)]) == 0
        else:
            script = REPO / "scripts" / f"{name}.py"
            monkeypatch.setattr(sys, "argv", [str(script), "--out", str(dest)])
            runpy.run_path(str(script), run_name="__main__")
        capsys.readouterr()
        assert dest.read_bytes() == (REPO / "results" / f"{name}.csv").read_bytes()


class TestSimulate:
    def test_document_and_counts_file(self, capsys, tmp_path):
        out_file = tmp_path / "sim.txt"
        rc, out, _ = run(
            capsys,
            [
                "simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--p", "0.1",
                "--out", str(out_file),
            ],
        )
        assert rc == 0
        doc = parse_doc(out)
        assert float(doc["counts.x.n0"]) == pytest.approx(29638.68123999105, rel=1e-8)
        assert doc["pulses.z"] == "900000"
        lines = out_file.read_text().splitlines()
        assert lines[0] == "X,29639,1193,774"

    def test_mc_counts_file_is_exact(self, capsys, tmp_path):
        # counts above 1e6 must reach rate as drawn, not rounded to six digits
        out_file = tmp_path / "sim.txt"
        argv = ["simulate", "--mc", "--N", "1e8", "--q", "0.05", "--mu0", "1.4", "--seed", "3"]
        rc, out_sim, _ = run(capsys, [*argv, "--out", str(out_file)])
        assert rc == 0
        total = parse_doc(out_sim)["counts.z.total"]
        assert int(total) > 10**6
        rc, out_rate, _ = run(capsys, ["rate", "--counts", str(out_file), "--N", "1e8"])
        assert rc == 0
        assert parse_doc(out_rate)["n_z"] == total

    def test_round_trip_through_rate(self, capsys, tmp_path):
        out_file = tmp_path / "sim.txt"
        run(
            capsys,
            [
                "simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--p", "0.1",
                "--out", str(out_file),
            ],
        )
        rc, out_counts, _ = run(
            capsys, ["rate", "--counts", str(out_file), "--N", "1000000"]
        )
        assert rc == 0
        rc, out_direct, _ = run(
            capsys,
            ["rate", "--simulate", "--N", "1e6", "--q", "0.05", "--mu0", "1", "--p", "0.1"],
        )
        assert rc == 0
        from_counts = float(parse_doc(out_counts)["rate_per_pulse"])
        direct = float(parse_doc(out_direct)["rate_per_pulse"])
        assert from_counts == pytest.approx(direct, rel=1e-3)

    def test_mc_document_is_the_recorded_one(self, capsys):
        argv = ["simulate", "--mc", "--N", "1e6", "--q", "0.05", "--mu0", "1.4", "--eta", "0.6", "--p", "0.1", "--seed", "17"]
        for _ in range(2):  # the sampler's tables are built, then reused
            assert run(capsys, argv) == (0, GOLDEN_MC_SIMULATE, "")

    def test_mc_matches_expected_scale(self, capsys):
        rc, out, _ = run(
            capsys,
            [
                "simulate", "--mc", "--seed", "4",
                "--N", "200000", "--q", "0.05", "--mu0", "1", "--p", "0.1",
            ],
        )
        assert rc == 0
        doc = parse_doc(out)
        assert doc["config.source"] == "mc"
        expected = 200000 * 0.05 * (1.0 - 1.0 / math.e)
        assert float(doc["counts.x.total"]) == pytest.approx(expected, rel=0.05)


class TestOptimize:
    def test_small_grid(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        rc, out, _ = run(
            capsys,
            [
                "optimize", "--N", "1e7", "--p", "0.1", "--eta", "0.5",
                "--mu-grid", "0.6:1.2:0.1", "--q-grid", "0.01:0.05:0.01",
                "--refine-levels", "1", "--trace-out", str(trace),
            ],
        )
        assert rc == 0
        doc = parse_doc(out)
        assert doc["status"] == "ok"
        assert float(doc["rate_opt"]) > 0.0
        assert float(doc["mu0_opt"]) == pytest.approx(float(doc["mu_opt"]) / 0.5, rel=1e-9)
        lines = trace.read_text().splitlines()
        assert lines[0] == "mu,q,rate"
        assert len(lines) == int(doc["evaluations"]) + 1

    @pytest.mark.parametrize(
        "flags,kwargs",
        [
            (
                ["--N", "1e7", "--p", "0.1", "--eta", "0.5", "--mu-grid", "0.6:1.2:0.1", "--q-grid", "0.01:0.05:0.01",
                 "--refine-levels", "1"],
                dict(n_pulses=1e7, p_mix=0.1, mu_grid=_parse_grid("0.6:1.2:0.1"), q_grid=_parse_grid("0.01:0.05:0.01"),
                     refine_levels=1),
            ),
            (["--N", "1e8", "--p", "0.1"], dict(n_pulses=1e8, p_mix=0.1)),
        ],
        ids=["small-grid", "default-grid"],
    )  # fmt: skip
    def test_trace_rows_are_the_result_trace(self, capsys, tmp_path, flags, kwargs):
        trace = tmp_path / "trace.csv"
        rc, _, err = run(capsys, ["optimize", *flags, "--trace-out", str(trace)])
        assert rc == 0 and err == ""
        result = optimize(budget=EpsilonBudget.uniform(), **kwargs)
        rows = [",".join(_fmt(v) for v in row) for row in result.trace.tolist()]
        assert trace.read_text().splitlines() == ["mu,q,rate", *rows]

    def test_no_positive_rate_is_success(self, capsys):
        rc, out, _ = run(capsys, ["optimize", "--N", "1e4", "--p", "0.1"])
        assert rc == 0
        assert parse_doc(out)["status"] == "no positive rate"

    def test_no_positive_rate_reports_no_optimum(self, capsys):
        # refinement used to drift to (0.445, 0.0445), outside the requested grid
        argv = ["optimize", "--N", "1e4", "--p", "0.1", "--mu-grid", "1:2:0.5", "--q-grid", "0.1:0.2:0.05"]
        rc, out, _ = run(capsys, argv)
        assert rc == 0
        doc = parse_doc(out)
        assert doc["status"] == "no positive rate"
        assert (doc["mu_opt"], doc["q_opt"], doc["mu0_opt"], doc["rate_opt"]) == ("nan", "nan", "nan", "0")

    def test_bad_grid_spec(self, capsys):
        rc, _, err = run(capsys, ["optimize", "--N", "1e7", "--mu-grid", "nonsense"])
        assert rc == 2
        assert "error[configuration]" in err

    @pytest.mark.parametrize(
        "flags", [["--N", "1e8", "--p", "nan"], ["--N", "1e8", "--p", "1.5"], ["--N", "nan"]]
    )
    def test_out_of_domain_source_fails(self, capsys, flags):
        # an undefined or out-of-domain source is refused before any cell is scored
        rc, out, err = run(capsys, ["optimize"] + flags)
        assert rc == 2 and out == ""
        assert err.startswith("error[optimization]")

    @pytest.mark.parametrize("grid", ["0:5:1e-9", "0:1e300:1e-300", "0.001:1.002:0.001"])
    def test_oversized_grid_rejected_before_allocation(self, capsys, monkeypatch, grid):
        import numpy as np

        def no_arange(*args, **kwargs):
            raise AssertionError("grid array was built")

        monkeypatch.setattr(np, "arange", no_arange)
        rc, _, err = run(capsys, ["optimize", "--N", "1e8", "--mu-grid", grid])
        assert rc == 2
        assert err.startswith("error[configuration]") and "more than 1000" in err

    @pytest.mark.parametrize("levels", ["31", "2000", "100000000"])
    def test_refine_levels_past_the_fixed_point_run(self, capsys, monkeypatch, levels):
        # these were refused at a cap of 30 levels; the search now stops at its own fixed point
        expected = run(capsys, ["optimize", "--N", "1e8", "--p", "0.1", "--refine-levels", "30"])
        real, calls = optimizer.rate_surface, []

        def counted(*args):
            calls.append(None)
            assert len(calls) <= 31, "refinement ran past its fixed point"
            return real(*args)

        monkeypatch.setattr(optimizer, "rate_surface", counted)
        start = time.perf_counter()
        rc, out, err = run(capsys, ["optimize", "--N", "1e8", "--p", "0.1", "--refine-levels", levels])
        assert time.perf_counter() - start < 1.0
        assert (rc, err) == (0, "")
        assert out == expected[1].replace("config.refine_levels: 30\n", f"config.refine_levels: {levels}\n")

    @pytest.mark.parametrize("levels", [0, 1, 3, 30])
    def test_refine_levels_up_to_the_cap_run(self, capsys, levels):
        rc, out, _ = run(capsys, ["optimize", "--N", "1e8", "--p", "0.1", "--refine-levels", str(levels)])
        assert rc == 0
        doc = parse_doc(out)
        result = optimize(1e8, 0.1, EpsilonBudget.uniform(), refine_levels=levels)
        assert doc["config.refine_levels"] == str(levels)
        assert doc["evaluations"] == str(result.evaluations)
        assert (doc["mu_opt"], doc["q_opt"], doc["rate_opt"]) == tuple(
            _fmt(v) for v in (result.mu_opt, result.q_opt, result.rate_opt)
        )


class TestCompare:
    def test_csv_to_stdout(self, capsys):
        rc, out, _ = run(capsys, ["compare", "--step", "0.5"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "x,y,rate_witness,rate_tomography,gap"
        rows = [line.split(",") for line in lines[1:]]
        assert all(float(r[4]) >= -1e-12 for r in rows)
        on_axis = [r for r in rows if float(r[1]) == 0.0]
        assert all(abs(float(r[4])) <= 1e-9 for r in on_axis)
        origin = next(r for r in rows if float(r[0]) == 0.0 and float(r[1]) == 0.0)
        assert float(origin[2]) == 0.0 and float(origin[3]) == 0.0

    def test_summary_with_file(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, ["compare", "--step", "0.25", "--out", str(out_csv)])
        assert rc == 0
        doc = parse_doc(out)
        assert int(doc["points"]) == len(out_csv.read_text().splitlines()) - 1
        assert float(doc["min_gap"]) >= -1e-12

    def test_stdout_is_the_file_text(self, capsys, tmp_path):
        out_csv = tmp_path / "grid.csv"
        assert run(capsys, ["compare", "--step", "0.25", "--out", str(out_csv)])[0] == 0
        rc, out, err = run(capsys, ["compare", "--step", "0.25"])
        assert rc == 0 and err == ""
        assert out == out_csv.read_text()

    def test_writes_are_chunked(self, capsys, monkeypatch, tmp_path):
        # every write to the CSV, file or stdout, holds at most one chunk of rows of at most 85 characters
        file_writes, stdout_writes = [], []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            write = handle.write
            handle.write = lambda text: (file_writes.append(text), write(text))[1]
            return handle

        class RecordingStdout(io.StringIO):
            def write(self, text):
                stdout_writes.append(text)
                return super().write(text)

        out_csv = tmp_path / "grid.csv"
        monkeypatch.setattr(cli, "open", recording_open, raising=False)
        rc, out, err = run(capsys, ["compare", "--step", "0.005", "--out", str(out_csv)])
        assert rc == 0 and err == ""
        stdout = RecordingStdout()
        monkeypatch.setattr(sys, "stdout", stdout)
        assert main(["compare", "--step", "0.005"]) == 0
        rows = int(parse_doc(out)["points"])
        assert rows > 30 * _CSV_CHUNK_ROWS
        for writes in (file_writes, stdout_writes):
            assert "".join(writes) == out_csv.read_text() == stdout.getvalue()
            assert len(writes) == 1 + -(-rows // _CSV_CHUNK_ROWS)
            assert max(text.count("\n") for text in writes) == _CSV_CHUNK_ROWS
            assert max(map(len, writes)) <= _CSV_CHUNK_ROWS * 85

    @pytest.mark.parametrize("step", ["1e-4", "0.002", "5e-324"])
    def test_oversized_step_is_refused(self, capsys, monkeypatch, step):
        # refused before any axis is built: an unchecked 1e-4 grid would need far more than 8 GB
        def no_axis(*args, **kwargs):
            raise AssertionError("np.arange ran before the step was checked")

        monkeypatch.setattr(np, "arange", no_axis)
        start = time.perf_counter()
        rc, out, err = run(capsys, ["compare", "--step", step])
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert err == f"error[configuration]: step {float(step)!r} puts more than 1000 points on each axis\n"

    @pytest.mark.parametrize("step", [0.5, 0.25, 0.05, 0.013])
    def test_rows_match_the_scalar_rates(self, capsys, tmp_path, step):
        # the per-point loop that the array evaluation replaced, with the scalar oracles of the two rates
        half = math.floor((1.0 + 1e-9) / step)
        axis = np.round(np.arange(-half, half + 1) * step, 12).tolist()
        rows, gaps, axis_gaps = [], [], [0.0]
        for x in axis:
            for y in axis:
                if x * x + y * y > 1.0 + 1e-9:
                    continue
                p_x = (1.0 + x) / 2.0
                r_u = witness_coherence_bound((p_x, 1.0 - p_x))
                r_t = coherence_rel_entropy(QubitTomogram(p_x, (1.0 + y) / 2.0, 0.5))
                rows.append(",".join(_fmt(v) for v in (x, y, r_u, r_t, r_t - r_u)))
                gaps.append(r_t - r_u)
                if y == 0.0:
                    axis_gaps.append(abs(r_t - r_u))
        out_csv = tmp_path / "grid.csv"
        rc, out, _ = run(capsys, ["compare", "--step", str(step), "--out", str(out_csv)])
        assert rc == 0
        assert out_csv.read_text().splitlines()[1:] == rows
        doc = parse_doc(out)
        assert doc["points"] == str(len(rows))
        assert doc["min_gap"] == _fmt(min(gaps))
        assert doc["max_abs_gap_on_axis"] == _fmt(max(axis_gaps))

    @pytest.mark.parametrize(
        "step,coords",
        [
            # 2 * step = 1.0000000004 is inside the half-axis slack of 1e-9 but off the disk
            ("0.5000000002", {"-0.5", "0", "0.5"}),
            ("0.3333333334", {"-0.666666667", "-0.333333333", "0", "0.333333333", "0.666666667"}),
            ("0.5", {"-1", "-0.5", "0", "0.5", "1"}),
        ],
    )
    def test_axis_stays_on_the_disk(self, capsys, step, coords):
        rc, out, err = run(capsys, ["compare", "--step", step])
        assert rc == 0 and err == ""
        points = [line.split(",")[:2] for line in out.splitlines()[1:]]
        assert all(abs(float(v)) <= 1.0 for point in points for v in point)
        assert {v for point in points for v in point} == coords



# What a report or CSV may hold: bools, ints past 2**53, floats with their edge cases, strs, numpy scalars.
EDGE_FLOATS = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, 2.2e-308, 1e16, 2.0**60, 1e22]
FLOATS = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats(), st.floats(allow_subnormal=True, max_value=1e-300, min_value=-1e-300))
INT64 = st.integers(-(2**63), 2**63 - 1)
REPORT_VALUES = st.one_of(
    st.booleans(),
    st.integers(),
    st.integers(2**53, 2**70),
    FLOATS,
    st.text(),
    FLOATS.map(np.float64),
    INT64.map(np.int64),
    st.booleans().map(np.bool_),
)


class TestReportText:
    @given(st.lists(st.tuples(st.text(), REPORT_VALUES)))
    def test_emit_matches_reference(self, doc):
        out, expected = io.StringIO(), io.StringIO()
        _emit(doc, out)
        reference_emit(doc, expected)
        assert out.getvalue() == expected.getvalue()

    @given(st.data(), st.integers(0, 12), st.lists(st.booleans(), min_size=1, max_size=5))
    def test_csv_matches_reference(self, data, size, float_columns):
        columns = [
            np.array(data.draw(st.lists(FLOATS, min_size=size, max_size=size)), dtype=np.float64)
            if is_float
            else data.draw(st.lists(REPORT_VALUES, min_size=size, max_size=size))
            for is_float in float_columns
        ]
        header = [f"c{i}" for i in range(len(columns))]
        out = io.StringIO()
        _write_csv(out, header, columns)
        rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
        assert out.getvalue() == reference_csv_text(header, rows)

    def test_csv_chunks_join_to_the_reference(self, monkeypatch):
        monkeypatch.setattr(cli, "_CSV_CHUNK_ROWS", 3)
        columns = [np.arange(10) / 7.0, np.arange(10.0) * 1e20, list(range(2**60, 2**60 + 10))]
        out = io.StringIO()
        _write_csv(out, ["a", "b", "c"], columns)
        rows = zip(columns[0].tolist(), columns[1].tolist(), columns[2])
        assert out.getvalue() == reference_csv_text(["a", "b", "c"], rows)


def _outcome(read, *args):
    """What a read returns, or the type and text of what it raises."""
    try:
        return "ok", read(*args)
    except (ValueError, OSError) as e:
        return type(e).__name__, str(e)


def oracle_counts(path) -> object:
    return parse_counts(Path(path).read_text(encoding="utf-8-sig"))


def oracle_bits(path, fmt="ascii", count=None) -> np.ndarray:
    assert fmt == "ascii"
    return parse_bit_string(Path(path).read_text(encoding="utf-8-sig"))


COUNTS_BYTES = {
    "crlf": b"X,900,50,50\r\nY,450,450,100\r\nZ,4500,4500,1000\r\n",
    "lone-cr": b"X,900,50,50\rY,450,450,100\rZ,4500,4500,1000\r",
    "lone-cr-bad-line": b"X,900,50,50\r\rY,450,abc,100\r\nZ,4500,4500,1000",
    "bom": b"\xef\xbb\xbfX,900,50,50\nY,450,450,100\nZ,4500,4500,1000\n",
    "invalid-utf8": b"X,900,50,50\nY,450,4\xff50,100\nZ,4500,4500,1000\n",
    "separators": b"X,900,50,50\x1cY,450,450,100\x1dZ,4500,4500,1000\x1e\x1f\n",
    "vt-ff": b"X,900,50,50\x0bY,450,450,100\x0cZ,4500,4500,1000\n",
    "nbsp-em-space": "X,\u00a0900,50,50\u2003\nY,450,450,100\nZ,4500,4500,1000\n".encode(),
    "non-numeric": "X,900,50,50\nY,450,4é0,100\nZ,4500,4500,1000\n".encode(),
}
BITS_BYTES = {
    "crlf": b"0110\r\n1001\r\n",
    "lone-cr": b"0110\r1001\r",
    "bom": b"\xef\xbb\xbf01101001\n",
    "invalid-utf8": b"0110\xff1001\n",
    "separators": b"01\x1c10\x1d01\x1e10\x1f01\n",
    "vt-ff": b"01\x0b10\x0c01\n",
    "nbsp-em-space": "01\u00a010\u200301\n".encode(),
    "non-binary": b"0110a1001\n",
    "non-binary-non-ascii": "01\u00a010é1x\n".encode(),
    "empty": b"",
}


BOM = b"\xef\xbb\xbf"
# (file contents, argv with F for the file) of each document the CLI reads
BOM_DOCUMENTS = {
    "counts": (COUNTS_TEXT.encode(), ["rate", "--counts", "F", "--N", "12000"]),
    "bits": (b"01101001\n", ["extract", "--input", "F", "--seed-file", "F", "--m", "1"]),
    "config": (json.dumps({"simulate": True, "N": 1e6, "q": 0.05, "mu0": 1.0}).encode(), ["rate", "--config", "F"]),
}


def pathlib_read(path) -> bytes:
    """A file read through a pathlib object, as the readers once did; pathlib drops './' and a trailing '/'."""
    return Path(path).read_bytes()


class FsPath:
    """An os.PathLike that is neither a str nor a pathlib object."""

    def __init__(self, path):
        self.path = str(path)

    def __fspath__(self) -> str:
        return self.path


# argv of each file read on the certify -> extract chain, F for the path under test; BITS and PACKED are readable
CHAIN_READS = {
    "counts": ["rate", "--counts", "F", "--N", "12000"],
    "input-ascii": ["extract", "--input", "F", "--seed-file", "BITS", "--m", "1"],
    "seed-ascii": ["extract", "--input", "BITS", "--seed-file", "F", "--m", "1"],
    "input-packed": ["extract", "--format", "packed", "--input", "F", "--seed-file", "PACKED", "--n", "8", "--m", "1"],
    "seed-packed": ["extract", "--format", "packed", "--input", "PACKED", "--seed-file", "F", "--n", "8", "--m", "1"],
}


def chain_argv(tmp_path, argv, path) -> list[str]:
    (tmp_path / "bits").write_bytes(b"01101001\n")
    (tmp_path / "packed").write_bytes(b"\xb5")
    names = {"F": str(path), "BITS": str(tmp_path / "bits"), "PACKED": str(tmp_path / "packed")}
    return [names.get(arg, arg) for arg in argv]


class TestReadPaths:
    """read_counts and read_bits read bytes; the oracles decode the file as UTF-8 text (BOM dropped) and parse that."""

    @pytest.mark.parametrize("kind", [str, Path, FsPath])
    def test_path_kinds(self, tmp_path, kind):
        (tmp_path / "counts").write_text(COUNTS_TEXT)
        (tmp_path / "bits").write_bytes(b"0110\n1001\n")
        (tmp_path / "packed").write_bytes(b"\x69")
        assert read_counts(kind(tmp_path / "counts")) == parse_counts(COUNTS_TEXT)
        assert read_bits(kind(tmp_path / "bits")).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]
        assert read_bits(kind(tmp_path / "packed"), "packed", 8).tolist() == [0, 1, 1, 0, 1, 0, 0, 1]

    @pytest.mark.parametrize("fmt", BIT_FORMATS + ("counts",))
    def test_int_path_is_refused(self, tmp_path, fmt):
        # an int is refused as pathlib refused it, not read as an open file descriptor
        (tmp_path / "file").write_text(COUNTS_TEXT)
        fd = os.open(tmp_path / "file", os.O_RDONLY)
        try:
            with pytest.raises(TypeError, match="^expected str, bytes or os.PathLike object, not int$"):
                read_counts(fd) if fmt == "counts" else read_bits(fd, fmt, 8)
        finally:
            with contextlib.suppress(OSError):
                os.close(fd)

    @pytest.mark.parametrize("bom", [b"", BOM], ids=["plain", "bom"])
    def test_large_bit_file_is_read_whole(self, tmp_path, bom):
        bits = np.random.default_rng(72).integers(0, 2, 3 * 2**20, dtype=np.uint8)
        lines = (bits + ord("0")).reshape(-1, 1024)
        path = tmp_path / "bits"
        path.write_bytes(bom + np.hstack([lines, np.full((lines.shape[0], 1), ord("\n"), np.uint8)]).tobytes())
        assert path.stat().st_size > 3_000_000
        assert np.array_equal(read_bits(path), bits)

    @pytest.mark.parametrize("target", ["missing", "directory"])
    @pytest.mark.parametrize("argv", CHAIN_READS.values(), ids=CHAIN_READS.keys())
    def test_unreadable_file_reports_as_through_pathlib(self, capsys, monkeypatch, tmp_path, argv, target):
        path = tmp_path / "missing" if target == "missing" else tmp_path
        argv = chain_argv(tmp_path, argv, path)
        got = run(capsys, argv)
        reason = "[Errno 2] No such file or directory" if target == "missing" else "[Errno 21] Is a directory"
        stage = "reading counts" if argv[0] == "rate" else "reading bits"
        assert got == (2, "", f"error[{stage}]: {reason}: {str(path)!r}\n")
        monkeypatch.setattr(acquisition, "_read_file", pathlib_read)
        monkeypatch.setattr(extractor, "_read_file", pathlib_read)
        assert run(capsys, argv) == got

    @pytest.mark.parametrize("argv", list(CHAIN_READS.values())[1:], ids=list(CHAIN_READS)[1:])
    def test_empty_path_names_no_file(self, capsys, tmp_path, argv):
        # pathlib read '' as '.', the working directory ("[Errno 21] Is a directory: '.'"); rate refuses an
        # empty --counts before reading it
        expected = "error[reading bits]: [Errno 2] No such file or directory: ''\n"
        assert run(capsys, chain_argv(tmp_path, argv, "")) == (2, "", expected)

    def test_path_goes_to_the_system_as_given(self, capsys, monkeypatch, tmp_path):
        # pathlib dropped './' and a trailing '/' before opening; a trailing '/' now names a directory, as in POSIX
        monkeypatch.chdir(tmp_path)
        argv = chain_argv(tmp_path, CHAIN_READS["counts"], "./missing")
        assert run(capsys, argv)[2] == "error[reading counts]: [Errno 2] No such file or directory: './missing'\n"
        argv = chain_argv(tmp_path, CHAIN_READS["input-ascii"], "bits/")
        assert run(capsys, argv)[2] == "error[reading bits]: [Errno 20] Not a directory: 'bits/'\n"
        argv = chain_argv(tmp_path, CHAIN_READS["input-ascii"], "bits") + ["--out", "out/"]
        assert run(capsys, argv) == (2, "", "error[writing output]: [Errno 21] Is a directory: 'out/'\n")
        assert not Path("out").exists()

    @pytest.mark.parametrize("data, argv", BOM_DOCUMENTS.values(), ids=BOM_DOCUMENTS.keys())
    def test_byte_order_mark_is_accepted(self, capsys, tmp_path, data, argv):
        # editors on Windows often start UTF-8 files with a BOM; each reader used to refuse it
        path = tmp_path / "document"
        argv = [str(path) if arg == "F" else arg for arg in argv]
        path.write_bytes(data)
        plain = run(capsys, argv)
        path.write_bytes(BOM + data)
        assert plain[0] == 0 and run(capsys, argv) == plain

    @pytest.mark.parametrize("data", COUNTS_BYTES.values(), ids=COUNTS_BYTES.keys())
    def test_counts_match_the_text_read(self, capsys, monkeypatch, tmp_path, data):
        path = tmp_path / "counts.txt"
        path.write_bytes(data)
        assert _outcome(read_counts, path) == _outcome(oracle_counts, path)
        argv = ["rate", "--counts", str(path), "--N", "12000"]
        got = run(capsys, argv)
        monkeypatch.setattr(cli, "read_counts", oracle_counts)
        assert got == run(capsys, argv)

    @pytest.mark.parametrize("data", BITS_BYTES.values(), ids=BITS_BYTES.keys())
    def test_bits_match_the_text_read(self, capsys, monkeypatch, tmp_path, data):
        path = tmp_path / "bits.txt"
        path.write_bytes(data)
        got, expected = _outcome(read_bits, path), _outcome(oracle_bits, path)
        if expected[0] == "ok":
            assert got[0] == "ok" and got[1].dtype == np.uint8
            assert np.array_equal(got[1], expected[1])
        else:
            assert got == expected
        argv = ["extract", "--input", str(path), "--seed-file", str(path), "--m", "1"]
        got = run(capsys, argv)
        monkeypatch.setattr(cli, "read_bits", oracle_bits)
        assert got == run(capsys, argv)


class TestExtract:
    def test_golden_vector(self, capsys, tmp_path):
        raw = tmp_path / "raw.txt"
        seed = tmp_path / "seed.txt"
        raw.write_text("101")
        seed.write_text("1011")
        rc, out, _ = run(
            capsys,
            ["extract", "--input", str(raw), "--seed-file", str(seed), "--n", "3", "--m", "2"],
        )
        assert rc == 0
        assert out.strip() == "01"

    def test_net_bits_sets_length(self, capsys, tmp_path):
        raw = tmp_path / "raw.txt"
        seed = tmp_path / "seed.txt"
        n, net = 80, 70.5
        m = 70 - 34  # floor(net) - ceil(log2(1e10))
        raw.write_text("10" * (n // 2))
        seed.write_text("110" * ((n + m - 1) // 3) + "1" * ((n + m - 1) % 3))
        rc, out, _ = run(
            capsys,
            [
                "extract", "--input", str(raw), "--seed-file", str(seed),
                "--net-bits", str(net), "--eps2", "1e-10",
            ],
        )
        assert rc == 0
        assert len(out.strip()) == m

    def test_packed_round_trip(self, capsys, tmp_path):
        import numpy as np

        from siqrng.extractor import ToeplitzSpec, toeplitz_extract, write_bits

        rng = np.random.default_rng(61)
        n, m = 128, 40
        raw = rng.integers(0, 2, n, dtype=np.uint8)
        seed = rng.integers(0, 2, n + m - 1, dtype=np.uint8)
        raw_path, seed_path, out_path = (
            tmp_path / "raw.bin", tmp_path / "seed.bin", tmp_path / "out.bin",
        )
        write_bits(raw_path, raw, "packed")
        write_bits(seed_path, seed, "packed")
        rc, out, _ = run(
            capsys,
            [
                "extract", "--input", str(raw_path), "--seed-file", str(seed_path),
                "--format", "packed", "--n", str(n), "--m", str(m), "--out", str(out_path),
            ],
        )
        assert rc == 0
        assert parse_doc(out)["m"] == str(m)
        expected = toeplitz_extract(raw, ToeplitzSpec(n, m, seed))
        from siqrng.extractor import read_bits

        assert np.array_equal(read_bits(out_path, "packed", m), expected)

    @pytest.mark.parametrize("fmt,empty", [("ascii", b"\n"), ("packed", b"")], ids=["ascii", "packed"])
    def test_zero_output_length_writes_empty_output(self, capsys, tmp_path, fmt, empty):
        from siqrng.extractor import write_bits

        # the seed file is not read at m = 0, in either format
        raw_path, seed_path, out_path = tmp_path / "raw", tmp_path / "missing", tmp_path / "out"
        write_bits(raw_path, [1, 0, 1, 1, 0, 0, 1, 0, 1], fmt)
        rc, out, err = run(
            capsys,
            [
                "extract", "--input", str(raw_path), "--seed-file", str(seed_path),
                "--format", fmt, "--n", "9", "--net-bits", "5", "--out", str(out_path),
            ],
        )
        assert rc == 0 and err == ""
        assert parse_doc(out)["m"] == "0"
        assert out_path.read_bytes() == empty

    @pytest.mark.parametrize(
        "target,data,message",
        [
            ("raw", b"\xb5\x40\x00", "packed data holds 3 bytes, expected 2 for 12 bits"),
            ("raw", b"\xb5", "packed data holds 1 bytes, expected 2 for 12 bits"),
            ("raw", b"\xb5\x48", "packed data has nonzero padding bits after bit 12"),
            ("seed", b"\x6e\x92\x00", "packed data holds 3 bytes, expected 2 for 15 bits"),
            ("seed", b"\x6e\x93", "packed data has nonzero padding bits after bit 15"),
        ],
        ids=["raw-extra-byte", "raw-short", "raw-padding", "seed-extra-byte", "seed-padding"],
    )
    def test_packed_file_length_is_exact(self, capsys, tmp_path, target, data, message):
        files = {"raw": b"\xb5\x40", "seed": b"\x6e\x92", target: data}
        for name, content in files.items():
            (tmp_path / name).write_bytes(content)
        dest = tmp_path / "out"
        rc, out, err = run(
            capsys,
            [
                "extract", "--input", str(tmp_path / "raw"), "--seed-file", str(tmp_path / "seed"),
                "--format", "packed", "--n", "12", "--m", "4", "--out", str(dest),
            ],
        )
        assert (rc, out) == (2, "")
        assert err == f"error[reading bits]: {message}\n"
        assert not dest.exists()

    def test_missing_length_fails(self, capsys, tmp_path):
        raw = tmp_path / "raw.txt"
        seed = tmp_path / "seed.txt"
        raw.write_text("101")
        seed.write_text("1011")
        rc, _, err = run(capsys, ["extract", "--input", str(raw), "--seed-file", str(seed)])
        assert rc == 2
        assert "error[configuration]" in err

    def test_rounding_guard_failure_writes_nothing(self, capsys, tmp_path, perturb_irfft):
        raw, seed, dest = tmp_path / "raw.txt", tmp_path / "seed.txt", tmp_path / "out.txt"
        raw.write_text("1011001110")
        seed.write_text("0110100111011")
        perturb_irfft(9 + 1, 0.4)  # row 1 of m = 4
        rc, out, err = run(
            capsys,
            ["extract", "--input", str(raw), "--seed-file", str(seed), "--m", "4", "--out", str(dest)],
        )
        assert rc == 2 and out == ""
        assert err.startswith("error[extraction]") and "margin" in err
        assert not dest.exists()

    def test_wrong_seed_length_fails(self, capsys, tmp_path):
        raw = tmp_path / "raw.txt"
        seed = tmp_path / "seed.txt"
        raw.write_text("101")
        seed.write_text("10111")
        rc, _, err = run(
            capsys,
            ["extract", "--input", str(raw), "--seed-file", str(seed), "--n", "3", "--m", "2"],
        )
        assert rc == 2
        assert "error[extraction]" in err
