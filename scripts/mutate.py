"""Run the committed mutants of the fail-closed guards against their tests.

Each entry of scripts/mutants.json names a file, an exact original text
that must occur in it once, a replacement, the test files that must
catch the change, and optionally a note on what the mutant weakens.  An
entry with "equivalent": true is a mutant that no test can tell apart
from the original; its note says why, and it must survive.  The runner
copies src/, tests/ and pyproject.toml to a temporary directory, checks
the unmutated copy passes every named test file, then applies one mutant
at a time and runs its test files with pytest -x -q, one pytest process
at a time.  The run fails when a mutant survives (or one marked
equivalent is killed), when its original text no longer occurs exactly
once (a stale table), or when a mutant breaks collection instead of
failing a test.  When the unmutated run fails or a mutant is BROKEN, the
runner prints pytest's failing test IDs and the last lines of its output;
passing runs and killed mutants stay quiet.
tests/test_package.py runs the same stale-table check with every test run.

Usage:
    python scripts/mutate.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "scripts" / "mutants.json"

# pytest's exit status when a test failed; collection errors and the like are other codes
TESTS_FAILED = 1
# lines of pytest's error report, and of its output's end, kept after its failing test IDs
TAIL_LINES = 5


def run_tests(copy: Path, tests: list[str]) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rfE", "--tb=line", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, capture_output=True, text=True)


def summary(result: subprocess.CompletedProcess) -> str:
    """pytest's failing test IDs, the last lines of its error report and of its output, indented."""
    lines = (result.stdout + result.stderr).splitlines()
    failed = [line for line in lines if line.startswith(("FAILED ", "ERROR "))]
    errors = [line for line in lines if line.startswith("E ")][-TAIL_LINES:]  # a collection error's exception
    tail = [line for line in lines[-TAIL_LINES:] if line.strip() and line not in failed]
    return "\n".join("    " + line for line in failed + errors + tail)


def stale_entries(root: Path, mutants: list[dict]) -> list[str]:
    """One line for each mutant whose original text does not occur exactly once in its file under root."""
    failures = []
    for mutant in mutants:
        found = (root / mutant["file"]).read_text().count(mutant["original"])
        if found != 1:
            failures.append(f"{mutant['name']}: original text occurs {found} times in {mutant['file']}")
    return failures


def main() -> int:
    mutants = json.loads(TABLE.read_text())
    with tempfile.TemporaryDirectory(prefix="siqrng-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        failures = stale_entries(copy, mutants)
        if failures:
            print("\n".join(failures))
            return 1

        all_tests = sorted({test for mutant in mutants for test in mutant["tests"]})
        result = run_tests(copy, all_tests)
        if result.returncode != 0:
            print(f"the unmutated tests fail: {' '.join(all_tests)}\n{summary(result)}")
            return 1

        for mutant in mutants:
            path = copy / mutant["file"]
            original = path.read_text()
            path.write_text(original.replace(mutant["original"], mutant["replacement"]))
            start = time.perf_counter()
            try:
                result = run_tests(copy, mutant["tests"])
            finally:
                path.write_text(original)
            status = result.returncode
            if mutant.get("equivalent", False):
                expected, verdicts = 0, {0: "equivalent", TESTS_FAILED: "KILLED"}
            else:
                expected, verdicts = TESTS_FAILED, {0: "SURVIVED", TESTS_FAILED: "killed"}
            verdict = verdicts.get(status, f"BROKEN (pytest exit {status})")
            print(f"{verdict:<10} {mutant['name']}  ({time.perf_counter() - start:.1f} s)", flush=True)
            if status not in verdicts:
                print(summary(result), flush=True)
            if status != expected:
                failures.append(mutant["name"])

    equivalents = sum(mutant.get("equivalent", False) for mutant in mutants)
    print(f"{len(mutants) - len(failures)} of {len(mutants)} mutants killed or, if marked equivalent ({equivalents}), survived")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
