"""Run the committed mutants of the fail-closed guards against their tests.

Each entry of scripts/mutants.json names a file, an exact original text
that must occur in it once, a replacement, the test files that must
catch the change, and optionally a note on what the mutant weakens.  The runner copies src/, tests/ and pyproject.toml to a
temporary directory, checks the unmutated copy passes every named test
file, then applies one mutant at a time and runs its test files with
pytest -x -q, one pytest process at a time.  The run fails when a mutant
survives, when its original text no longer occurs exactly once (a stale
table), or when a mutant breaks collection instead of failing a test.

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


def run_tests(copy: Path, tests: list[str]) -> int:
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests]
    return subprocess.run(command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode


def main() -> int:
    mutants = json.loads(TABLE.read_text())
    failures = []
    with tempfile.TemporaryDirectory(prefix="siqrng-mutate-") as tmp:
        copy = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "pyproject.toml", copy / "pyproject.toml")

        for mutant in mutants:
            found = (copy / mutant["file"]).read_text().count(mutant["original"])
            if found != 1:
                failures.append(f"{mutant['name']}: original text occurs {found} times in {mutant['file']}")
        if failures:
            print("\n".join(failures))
            return 1

        all_tests = sorted({test for mutant in mutants for test in mutant["tests"]})
        if run_tests(copy, all_tests) != 0:
            print(f"the unmutated tests fail: {' '.join(all_tests)}")
            return 1

        for mutant in mutants:
            path = copy / mutant["file"]
            original = path.read_text()
            path.write_text(original.replace(mutant["original"], mutant["replacement"]))
            start = time.perf_counter()
            try:
                status = run_tests(copy, mutant["tests"])
            finally:
                path.write_text(original)
            verdict = {0: "SURVIVED", TESTS_FAILED: "killed"}.get(status, f"BROKEN (pytest exit {status})")
            print(f"{verdict:<10} {mutant['name']}  ({time.perf_counter() - start:.1f} s)", flush=True)
            if status != TESTS_FAILED:
                failures.append(mutant["name"])

    print(f"{len(mutants) - len(failures)} of {len(mutants)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
