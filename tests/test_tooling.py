"""The test configuration itself: a failing test fails, it does not abort.

pyproject.toml turns warnings into errors; a warning raised inside a
pytest plugin's own hook would otherwise end the session with an
INTERNALERROR and skip every test after it.
"""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_passes():
    pass
'''


def test_failing_property_test_is_one_failure(tmp_path):
    (tmp_path / "test_prop.py").write_text(FAILING_PROPERTY,
                                           encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "-q",
         "test_prop.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout
