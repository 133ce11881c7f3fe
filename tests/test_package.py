import json
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import siqrng

REPO = Path(__file__).resolve().parents[1]


def test_every_exported_name_resolves():
    # a stale __all__ entry fails only when a user star-imports the package
    assert len(set(siqrng.__all__)) == len(siqrng.__all__)
    missing = [name for name in siqrng.__all__ if not hasattr(siqrng, name)]
    assert missing == []
    namespace = {}
    exec("from siqrng import *", namespace)
    assert set(siqrng.__all__) <= namespace.keys()


def test_every_mutant_original_occurs_once():
    # a refactor that moves a guarded line would otherwise surface only in the slow scripts/mutate.py run
    mutate = runpy.run_path(str(REPO / "scripts" / "mutate.py"))
    assert mutate["stale_entries"](REPO, json.loads(mutate["TABLE"].read_text())) == []


def test_falsified_property_fails_one_test_not_the_run(tmp_path):
    # under filterwarnings = error, a warning raised while Hypothesis reports its
    # falsifying example became a pytest INTERNALERROR that ended the whole run
    (tmp_path / "test_property.py").write_text(
        textwrap.dedent(
            """
            from hypothesis import given, strategies as st

            @given(st.integers())
            def test_falsified(n):
                assert n < 0

            def test_after():
                pass
            """
        )
    )
    command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(REPO / "pyproject.toml")]
    result = subprocess.run(
        [*command, "--rootdir", str(tmp_path), "test_property.py"], cwd=tmp_path, capture_output=True, text=True
    )
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert result.returncode == 1
    assert "1 failed, 1 passed" in result.stdout
