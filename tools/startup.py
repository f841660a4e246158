"""Start-up cost of each fermatlab CLI command, and what it loads.

    python3 tools/startup.py [--runs N] [NAME ...]

For each named call (default: all of CALLS) it runs N fresh
`python3 -m fermatlab ...` processes, each followed by a bare
interpreter (`python3 -c pass`), and prints the median wall time of
both, from spawn to exit, their difference, and the fermatlab modules
the call loaded, with those of json, hashlib, datetime and numpy that
it loaded.  The `import` call only imports fermatlab.cli.  The
`checkpoint` call writes its checkpoints to a fresh temporary directory,
made for each process and removed after it.  The package is taken from
src/ beside this script.

Whether the interpreter may read and write a bytecode cache
(__pycache__) is left to the environment, and printed first: with
PYTHONDONTWRITEBYTECODE=1 and no __pycache__ under src/, every call
compiles the package again.  So does every call for each stale .pyc
of the package, one whose header no longer matches its .py (mtime or
size), when the cache is not written: the header line counts them.  Standard library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import os
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "fermatlab"

# stands for a fresh temporary directory in a call's arguments
TMP = "{tmp}"

# one cheap call of each command, and pepin's with checkpoints
CALLS = {
    "import": ["-c", "import fermatlab.cli"],
    "pepin": ["-m", "fermatlab", "pepin", "10"],
    "checkpoint": ["-m", "fermatlab", "pepin", "10", "--checkpoint-dir", TMP],
    "classify": ["-m", "fermatlab", "classify", "12", "--base", "7"],
    "order": ["-m", "fermatlab", "order", "12", "--base", "5"],
    "factor": ["-m", "fermatlab", "factor", "9", "--k-max", "100"],
    "audit": ["-m", "fermatlab", "audit", "--n-range", "5..8"],
    "selftest": ["-m", "fermatlab", "selftest"],
}

BARE = ["-c", "pass"]

# Runs the command given as arguments in-process, or only imports
# fermatlab.cli, then writes to stderr the fermatlab modules loaded and
# which of json, hashlib, datetime and numpy were.
_PROBE = """\
import sys
from fermatlab.cli import main
if len(sys.argv) > 1:
    main(sys.argv[1:])
ours = sorted(name for name in sys.modules if name.startswith("fermatlab."))
print(" ".join(ours + [name for name in ("json", "hashlib", "datetime",
                                         "numpy") if name in sys.modules]),
      file=sys.stderr)
"""


def stale_bytecode(package: Path) -> int:
    """The .pyc files of this interpreter under package's __pycache__
    directories whose header records an mtime or size that their .py no
    longer has.  Hash-based .pyc files are not compared."""
    stale = 0
    for pyc in package.rglob("__pycache__/*.pyc"):
        try:
            source = Path(importlib.util.source_from_cache(pyc))
        except ValueError:  # another interpreter's cache tag
            continue
        flags, recorded = struct.unpack("<I8s", pyc.read_bytes()[4:16])
        if flags == 0 and source.exists():
            st = source.stat()
            stale += recorded != struct.pack(
                "<II", int(st.st_mtime) & 0xFFFFFFFF, st.st_size & 0xFFFFFFFF)
    return stale


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=str(SRC) if not path
                else f"{SRC}{os.pathsep}{path}")


def _python(args, tmp: str) -> list:
    """The command line that runs python3 on args, with TMP as tmp."""
    return [sys.executable, *(tmp if arg == TMP else arg for arg in args)]


def _wall(args, env) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        argv = _python(args, tmp)
        t0 = time.perf_counter()
        subprocess.run(argv, env=env, check=True, stdout=subprocess.DEVNULL,
                       stderr=subprocess.DEVNULL)
        return time.perf_counter() - t0


def _modules(args, env) -> str:
    command = args[2:] if args[0] == "-m" else []
    with tempfile.TemporaryDirectory() as tmp:
        proc = subprocess.run(_python(["-c", _PROBE, *command], tmp),
                              env=env, capture_output=True, text=True,
                              check=True)
    return proc.stderr.splitlines()[-1].replace("fermatlab.", "")


def main(argv: list) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=11,
                    help="fresh processes per call (default 11)")
    ap.add_argument("names", nargs="*", metavar="NAME",
                    help=f"calls to time: {', '.join(CALLS)} (default all)")
    args = ap.parse_args(argv)
    unknown = set(args.names) - set(CALLS)
    if unknown:
        ap.error(f"unknown calls: {', '.join(sorted(unknown))}")
    env = _env()
    cache = "not written" if env.get("PYTHONDONTWRITEBYTECODE") \
        else "written"
    print(f"python {sys.version.split()[0]}, {os.cpu_count()} CPUs, "
          f"bytecode cache {cache}, {stale_bytecode(PACKAGE)} stale .pyc, "
          f"median of {args.runs} runs")
    print(f"{'call':10s} {'ms':>7s} {'bare ms':>8s} {'diff':>7s}  modules")
    for name in args.names or CALLS:
        call = CALLS[name]
        walls, bare = [], []
        for _ in range(args.runs):
            walls.append(_wall(call, env))
            bare.append(_wall(BARE, env))
        ms, bare_ms = (1e3 * statistics.median(w) for w in (walls, bare))
        print(f"{name:10s} {ms:7.1f} {bare_ms:8.1f} {ms - bare_ms:7.1f}  "
              f"{_modules(call, env)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
