"""The suite's own pytest settings: a failing property test is reported as a
failure, and every other test still runs and is reported beside it."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"


def test_failing_property_test_hides_no_other_test(tmp_path):
    # On a failure hypothesis's pytest plugin imports libcst to offer a patch,
    # and libcst's import raises a DeprecationWarning, which the settings'
    # error::DeprecationWarning would make an INTERNALERROR ending the run.
    (tmp_path / "test_scratch.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_fails(x):\n"
        "    assert x < 5\n\n\n"
        "def test_passes():\n"
        "    assert True\n",
        encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_scratch.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert proc.returncode == 1, output
    assert "1 failed, 1 passed" in output
