"""The shared conftest keeps a failing hypothesis test a plain failure."""
import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent
FAILING = '''from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
'''


def test_failing_given_test_is_reported_not_internal_error(tmp_path):
    # with warnings as errors, as pyproject.toml sets them, the failure
    # report must not abort pytest (exit 3); it is one failed test (exit 1)
    (tmp_path / "test_failing.py").write_text(FAILING)
    (tmp_path / "pytest.ini").write_text("[pytest]\nfilterwarnings = error\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(TESTS.parent / "src"), str(TESTS)]))
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "conftest", "-p", "no:cacheprovider",
         "test_failing.py"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1, done.stdout + done.stderr
    assert "1 failed" in done.stdout
