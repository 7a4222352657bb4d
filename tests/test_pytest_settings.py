"""The repository's pytest settings keep a failing property test readable."""

import shutil
import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_falsifying_example_is_reported(tmp_path):
    # every warning is an error, but hypothesis's failure report touches a
    # deprecated mypy_extensions name; that warning must not turn the report
    # into an INTERNALERROR
    shutil.copy(PYPROJECT, tmp_path / "pyproject.toml")
    (tmp_path / "test_falsified.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "Falsifying example" in proc.stdout
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
