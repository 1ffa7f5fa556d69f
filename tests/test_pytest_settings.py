"""The suite's own pytest settings: a failing hypothesis test is reported like any other failure."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
'''


def test_a_failing_hypothesis_test_leaves_the_rest_of_the_run_going(tmp_path):
    # Printing the failing example imports libcst, whose import warns through mypy_extensions; under the
    # settings' error::DeprecationWarning that warning would end the session with INTERNALERROR.
    (tmp_path / "test_example.py").write_text(FAILING_THEN_PASSING)
    args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT), "--rootdir", str(tmp_path)]
    proc = subprocess.run(
        [sys.executable, *args, "test_example.py"], cwd=tmp_path, capture_output=True, text=True, timeout=300
    )
    output = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in output
    assert "1 failed, 1 passed" in output, output
