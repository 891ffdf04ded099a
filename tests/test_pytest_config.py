"""The repo's pytest configuration reports a failing property test.

``filterwarnings = ["error"]`` once turned a ``DeprecationWarning`` raised
inside hypothesis' failure report into an ``INTERNALERROR`` that printed
neither the failing test nor its falsifying example.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_a_failing_property(x):
    assert x != x
'''


def test_a_failing_given_test_is_reported_by_name_and_example(tmp_path):
    (tmp_path / "test_failing.py").write_text(FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_failing.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "test_a_failing_property" in out
    assert "Falsifying example" in out
