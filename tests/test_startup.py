"""tools/startup.py times fresh CLI processes and lists what each call
loads; no timing is asserted."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "startup.py"


def run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=600)


def test_one_cheap_call():
    proc = run("--runs", "1", "factor")
    assert proc.returncode == 0, proc.stderr
    header, columns, row = proc.stdout.splitlines()
    assert "median of 1 runs" in header
    assert columns.split() == ["call", "ms", "bare", "ms", "diff",
                               "modules"]
    name, ms, bare_ms, diff, *modules = row.split()
    assert name == "factor"
    assert float(ms) > 0 and float(bare_ms) > 0
    assert {"cli", "factors", "records"} <= set(modules)


def test_unknown_call_is_refused():
    proc = run("--runs", "1", "no-such-call")
    assert proc.returncode == 2
    assert "unknown calls: no-such-call" in proc.stderr
