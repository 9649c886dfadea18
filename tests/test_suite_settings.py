"""The suite's own pytest settings report a failing test as a failure."""

import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

FAILING_PROPERTY = '''
from hypothesis import given
from hypothesis import strategies as st


@given(st.integers())
def test_fails(x):
    assert x != x
'''


def test_failing_hypothesis_test_is_reported_not_an_internal_error(tmp_path):
    # With warnings as errors, a DeprecationWarning raised while hypothesis
    # reports a failure used to abort the run with INTERNALERROR and no
    # FAILED line, hiding every later result.
    (tmp_path / "test_failing_property.py").write_text(FAILING_PROPERTY, encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(REPO / "pyproject.toml"), "--rootdir", str(tmp_path),
         "test_failing_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    output = done.stdout + done.stderr
    assert done.returncode == 1, output
    assert "FAILED test_failing_property.py::test_fails" in output
    assert "INTERNALERROR" not in output
