"""tools/startup.py times fresh CLI processes and lists what each call
loads; no timing is asserted."""

import importlib.util
import os
import py_compile
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "startup.py"


def run(*args: str, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *args],
                          capture_output=True, text=True, timeout=600,
                          env=env)


def test_one_cheap_call():
    proc = run("--runs", "1", "factor")
    assert proc.returncode == 0, proc.stderr
    header, columns, row = proc.stdout.splitlines()
    assert "median of 1 runs" in header
    assert " stale .pyc, " in header
    assert columns.split() == ["call", "ms", "bare", "ms", "diff",
                               "modules"]
    name, ms, bare_ms, diff, *modules = row.split()
    assert name == "factor"
    assert float(ms) > 0 and float(bare_ms) > 0
    assert {"cli", "factors", "records"} <= set(modules)


def test_checkpointed_pepin_loads_the_checkpoint_code(tmp_path):
    # each of its processes writes to a temporary directory of its own,
    # under TMPDIR, and leaves none behind
    proc = run("--runs", "2", "checkpoint",
               env=dict(os.environ, TMPDIR=str(tmp_path)))
    assert proc.returncode == 0, proc.stderr
    name, _, _, _, *modules = proc.stdout.splitlines()[2].split()
    assert name == "checkpoint"
    # below n = 14, where numpy (which loads datetime) stays out
    assert {"checkpoint", "json", "hashlib"} <= set(modules)
    assert "datetime" not in modules
    assert list(tmp_path.iterdir()) == []


def test_unknown_call_is_refused():
    proc = run("--runs", "1", "no-such-call")
    assert proc.returncode == 2
    assert "unknown calls: no-such-call" in proc.stderr


def load_startup():
    spec = importlib.util.spec_from_file_location("startup", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stale_bytecode_is_counted(tmp_path):
    # a .pyc whose recorded size or mtime is not its .py's is compiled
    # again on every import, and never rewritten without a cache write
    package = tmp_path / "pkg"
    package.mkdir()
    sources = [package / name for name in ("fresh.py", "stale.py")]
    for source in sources:
        source.write_text("X = 1\n", encoding="utf-8")
        py_compile.compile(
            str(source), cfile=importlib.util.cache_from_source(source),
            invalidation_mode=py_compile.PycInvalidationMode.TIMESTAMP,
            doraise=True)
    stale_bytecode = load_startup().stale_bytecode
    assert stale_bytecode(package) == 0
    sources[1].write_text("X = 2  # longer\n", encoding="utf-8")
    assert stale_bytecode(package) == 1
    # the same size at another mtime is stale too
    sources[1].write_text("X = 1\n", encoding="utf-8")
    st = sources[1].stat()
    os.utime(sources[1], (st.st_atime, st.st_mtime + 10))
    assert stale_bytecode(package) == 1
