import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import siqrng
from siqrng.cli import CliError, _shared_parser, build_parser, main

COUNTS_TEXT = "X,900,50,50\nY,450,450,100\nZ,4500,4500,1000\n"


def run(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_doc(out: str) -> dict:
    doc = {}
    for line in out.splitlines():
        key, _, value = line.partition(": ")
        doc[key] = value
    return doc


@pytest.fixture
def counts_file(tmp_path):
    path = tmp_path / "counts.txt"
    path.write_text(COUNTS_TEXT)
    return path


class TestRate:
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
        rc, out, _ = run(
            capsys,
            ["rate", "--counts", str(counts_file), "--N", "12000", "--out", str(out_csv)],
        )
        assert rc == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0].split(",")[0] == "n_z"
        assert len(lines) == 2
        assert lines[1].split(",")[0] == "10000"

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
        # the file records 12000 clicks, and each pulse yields at most one
        rc, out, err = run(capsys, ["rate", "--counts", str(counts_file), "--N", n_pulses])
        assert rc == 2 and out == ""
        assert err.startswith("error[reading counts]")

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

    def test_oversized_photon_window_fails(self, capsys):
        argv = ["rate", "--simulate", "--mc", "--N", "1e6", "--q", "0.01", "--mu0", "1e6"]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error[simulation]")

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

    @pytest.mark.parametrize("entry", ["NaN", "Infinity", "-Infinity", "-50"])
    @pytest.mark.parametrize("route", ["inline", "config"])
    def test_bad_inline_counts_fail_while_reading(self, capsys, tmp_path, entry, route):
        # NaN used to reach the worst-case stage as the interval [nan, nan]
        document = '{"X":[900,50,%s],"Y":[450,450,100],"Z":[4500,4500,1000]}' % entry
        if route == "inline":
            argv = ["rate", "--counts-inline", document, "--N", "12000"]
        else:
            config = tmp_path / "run.json"
            config.write_text('{"counts": %s}' % document)
            argv = ["rate", "--config", str(config), "--N", "12000"]
        rc, out, err = run(capsys, argv)
        assert rc == 2 and out == ""
        assert err.startswith("error[reading counts]: basis X: nd must be finite and nonnegative")

    @pytest.mark.parametrize(
        "document",
        [
            "[900, 50, 50]",
            '{"X": 5, "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}',
            '{"X": [900, 50, [50]], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}',
            '{"X": [900, 50, 1%s], "Y": [450, 450, 100], "Z": [4500, 4500, 1000]}' % ("0" * 400),
        ],
        ids=["not-an-object", "not-a-triple", "not-a-number", "beyond-float"],
    )
    def test_malformed_inline_counts_fail_while_reading(self, capsys, document):
        # each of these used to escape main as an uncaught TypeError, AttributeError or OverflowError
        rc, out, err = run(capsys, ["rate", "--counts-inline", document, "--N", "12000"])
        assert rc == 2 and out == ""
        assert err.startswith("error[reading counts]")


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


BAD_COUNT = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=-1e-9, allow_infinity=False),
    st.integers(max_value=-1),
)


@given(entries=st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True), data=st.data())
def test_bad_inline_counts_never_certify(entries, data):
    counts = [[900, 50, 50], [450, 450, 100], [4500, 4500, 1000]]
    for entry in entries:
        counts[entry // 3][entry % 3] = data.draw(BAD_COUNT)
    document = json.dumps(dict(zip("XYZ", counts)))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["rate", "--counts-inline", document, "--N", "12000"])
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

    def test_built_on_first_use_not_at_import(self):
        src = str(Path(siqrng.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        code = "import siqrng.cli; print(siqrng.cli._shared_parser.cache_info().currsize)"
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "0"


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
