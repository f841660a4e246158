"""The benchmark's layer tracer still runs the CLI and counts squarings.

clibench/tracer.py wraps `arith.mod_square_chain` as `(a, count,
observer=None)` and forwards `(a, count)` when no observer is passed,
which is every call now; it also wraps a `CheckpointWriter.__call__`
that the writer no longer has, and reads `primality._PRIME_CACHE` before
each `fermat_is_prime`.  These runs pin that contract from the library
side.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import run_cli, unrefuted_bases

from fermatlab import arith
from fermatlab.records import strip_timing

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "clibench" / "tracer.py"


def run_traced(tmp_path, *args):
    """Run one CLI call under the tracer; the process and its trace."""
    out = tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(TRACER), str(out), *args],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["exit_code"] == 0
    return proc, doc


def traced(tmp_path, *args):
    """Run one CLI call under the tracer; its counts."""
    return run_traced(tmp_path, *args)[1]["counts"]


def test_classify_chain_is_counted(tmp_path):
    # one FFT chain: F_14's known factor decides its primality
    counts = traced(tmp_path, "classify", "14", "--base", "5")
    assert counts["arith.squarings"] == 1 << 14


def test_paused_and_resumed_pepin_is_counted(tmp_path):
    ck = str(tmp_path / "ck")
    paused = traced(tmp_path, "pepin", "8", "--checkpoint-dir", ck,
                    "--stop-after", "5")
    assert paused["arith.squarings"] == 5
    resumed = traced(tmp_path, "pepin", "8", "--checkpoint-dir", ck)
    assert resumed["arith.squarings"] == (1 << 8) - 1 - 5


def test_checkpointed_pepin_slice_is_counted(tmp_path):
    # the shape of the benchmark's pepin-large calls, on the FFT kernel
    ck = str(tmp_path / "ck")
    _, doc = run_traced(tmp_path, "pepin", "14", "--checkpoint-dir", ck,
                        "--stop-after", "128")
    assert doc["counts"]["arith.squarings"] == 128
    saves = [s for s in doc["spans"] if s[1] == "checkpoint.save_checkpoint"]
    assert len(saves) == 1


def test_batched_fft_audit_gives_the_same_record(tmp_path):
    # no known factor refutes these bases, so their chains run, and
    # there are enough of them to square as one batch on the FFT
    pytest.importorskip("numpy")
    bases = unrefuted_bases(12, arith.FFT_MIN_BATCH[12])
    args = ("audit", "--n-range", "12", "--bases",
            ",".join(map(str, bases)))
    proc, _ = run_traced(tmp_path, *args)
    assert strip_timing(json.loads(proc.stdout)) \
        == strip_timing(run_cli(*args).json())


def test_traced_order_probes_the_prime_cache(tmp_path):
    # a found alpha goes through fermat_is_prime, whose hook reads
    # primality._PRIME_CACHE
    args = ("order", "5", "--base", "2")
    proc, doc = run_traced(tmp_path, *args)
    assert doc["counts"]["primality.prime_cache_misses"] == 1
    assert strip_timing(json.loads(proc.stdout)) \
        == strip_timing(run_cli(*args).json())


def test_traced_classify_gives_the_same_record(tmp_path):
    args = ("classify", "9", "--base", "7")
    proc, _ = run_traced(tmp_path, *args)
    assert strip_timing(json.loads(proc.stdout)) \
        == strip_timing(run_cli(*args).json())
