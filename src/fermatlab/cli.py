"""Command-line front end.

One JSON record per invocation on stdout (``--format text`` for a human
rendering), diagnostics on stderr, and a fixed exit-code contract:

    0  success
    1  selftest failure
    2  usage or precondition error (an unwritable --report or
       --checkpoint-dir included)
    3  corrupt or mismatched checkpoint, or a chain residue that fails
       the known-factor check (factors.check_known_factor)
    4  congruence-rule violation (the headline event; see classify)

Long half-residue runs can write checkpoints (--checkpoint-dir) and are
resumed automatically from them; a checkpoint that fails its digest is
refused with exit 3 rather than silently restarted, since a bad file
usually means trouble outside this program.  --stop-after ends the run
cleanly right after writing a checkpoint, which is also how the resume
machinery is exercised in tests.

Each command imports the modules it runs when it runs, so that a call
loads no other command's code: every call is a fresh process, and most
of a short one is start-up.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import os
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

EXIT_OK = 0
EXIT_SELFTEST_FAILURE = 1
EXIT_USAGE = 2
EXIT_CORRUPT_CHECKPOINT = 3
EXIT_THEOREM_VIOLATION = 4

PROG = "fermatlab"

# numpy starts OpenBLAS's thread pool when it is imported, which took
# about 70 of its 160 ms on 2 cores; fermatlab never calls BLAS (numpy's
# FFT is pocketfft).
_BLAS_THREADS = "OPENBLAS_NUM_THREADS"


def _log(message: str) -> None:
    print(f"{PROG}: {message}", file=sys.stderr)


def _emit(doc: Dict[str, object], fmt: str) -> None:
    from . import records
    if fmt == "json":
        sys.stdout.write(records.dump(doc))
    else:
        sys.stdout.write(render_text(doc))


def _parse_base(text: str) -> int:
    """A base in decimal, or in hex after 0x or 0X as the records print
    bases; only hex gets past int()'s cap of 4300 decimal digits."""
    if text[:2] in ("0x", "0X"):
        digits = text[2:]
        if digits and set(digits) <= set("0123456789abcdefABCDEF"):
            return int(digits, 16)
    else:
        with contextlib.suppress(ValueError):
            return int(text)
    raise argparse.ArgumentTypeError(
        "expected an integer, in decimal (at most 4300 digits) or as 0x "
        f"and hex digits, got {text!r}")


def _parse_bases(text: str) -> List[int]:
    bases = [_parse_base(part.strip()) for part in text.split(",")
             if part.strip()]
    if not bases:
        raise argparse.ArgumentTypeError("base list is empty")
    return bases


def _parse_range(text: str):
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected N or LO..HI, got {text!r}") from None
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


def _at_least(kind, low):
    """An argparse type: kind(text), refused below low or as NaN."""
    def parse(text: str):
        value = kind(text)
        if not value >= low:  # NaN included
            raise argparse.ArgumentTypeError(
                f"must be >= {low}, got {text!r}")
        return value
    parse.__name__ = kind.__name__  # argparse's "invalid int value: ..."
    return parse


def cmd_pepin(args: argparse.Namespace) -> int:
    from . import records
    from .primality import PEPIN_ADMISSIBLE_BASES, check_pepin, pepin_test
    t0 = time.perf_counter()
    # an option left out keeps the writer's default cadence
    cadence = {key: value for key, value in (
        ("every_squarings", args.checkpoint_every),
        ("every_seconds", args.checkpoint_seconds)) if value is not None}
    if args.checkpoint_dir is None:
        if cadence or args.stop_after is not None:
            _log("--stop-after, --checkpoint-every and --checkpoint-seconds "
                 "need --checkpoint-dir (the checkpoints must go somewhere)")
            return EXIT_USAGE
        prime, half = pepin_test(args.n, args.base,
                                 allow_any_base=args.allow_any_base)
    else:
        # the checkpoint code, with hashlib and datetime, loads only here
        from .checkpoint import ChainPaused, CheckpointWriter
        # a refused n or base exits 2 before the writer makes the
        # directory or loads a file from it
        check_pepin(args.n, args.base, args.allow_any_base)
        writer = CheckpointWriter(
            args.n, args.base, Path(args.checkpoint_dir),
            stop_after=args.stop_after, **cadence)
        cp = writer.resumed
        if cp is not None:
            _log(f"resuming n={args.n} base=0x{args.base:x} from squaring "
                 f"{cp.squaring_index} (checkpoint of {cp.created_at})")
        try:
            prime, half = pepin_test(args.n, args.base,
                                     allow_any_base=args.allow_any_base,
                                     checkpoints=writer)
        except ChainPaused as pause:
            elapsed = time.perf_counter() - t0
            _log(f"paused after squaring {pause.index}; checkpoint at "
                 f"{pause.path}")
            _emit(records.paused_record(args.n, args.base, pause.index,
                                        str(pause.path), elapsed),
                  args.format)
            return EXIT_OK
    elapsed = time.perf_counter() - t0
    _emit(records.pepin_record(args.n, args.base,
                               args.base in PEPIN_ADMISSIBLE_BASES,
                               prime, half.to_hex(), elapsed), args.format)
    return EXIT_OK


def cmd_classify(args: argparse.Namespace) -> int:
    from . import records
    from .primality import classify_report
    t0 = time.perf_counter()
    verdict = classify_report(args.n, args.base)
    elapsed = time.perf_counter() - t0
    _emit(records.classify_record(verdict, elapsed), args.format)
    if verdict.violations:
        _log(f"{len(verdict.violations)} congruence rule(s) FAILED; "
             "this should be impossible, please preserve the output")
        return EXIT_THEOREM_VIOLATION
    return EXIT_OK


def cmd_audit(args: argparse.Namespace) -> int:
    from . import records
    from .primality import audit_range, check_audit_grid, \
        default_audit_bases
    t0 = time.perf_counter()
    lo, hi = args.n_range
    n_values = range(lo, hi + 1)
    bases = args.bases if args.bases is not None else default_audit_bases()
    # A refused grid leaves no report file; an unusable report path is
    # refused before the first chain, not after the whole audit.
    check_audit_grid(n_values, bases)
    with records.replacing(args.report) if args.report is not None \
            else contextlib.nullcontext() as out:
        report = audit_range(n_values, bases)
        elapsed = time.perf_counter() - t0
        doc = records.audit_record(report, [lo, hi], bases, elapsed)
        if out is not None:
            out.write(records.dump(doc))
    if args.report is not None:
        _log(f"report written to {args.report}")
    _emit(doc, args.format)
    if not report.all_passed:
        _log(f"{len(report.violations)} audit violation(s) found")
        return EXIT_THEOREM_VIOLATION
    return EXIT_OK


def cmd_factor(args: argparse.Namespace) -> int:
    from . import records
    from .factors import lucas_search
    t0 = time.perf_counter()
    found = lucas_search(args.n, args.k_max, args.prime_filter)
    elapsed = time.perf_counter() - t0
    doc = records.factor_record(args.n, args.k_max, args.prime_filter,
                                found, elapsed)
    _emit(doc, args.format)
    if doc["violations"]:
        _log("a prime divisor violated the k-form constraints; "
             "this should be impossible, please preserve the output")
        return EXIT_THEOREM_VIOLATION
    return EXIT_OK


def cmd_order(args: argparse.Namespace) -> int:
    from . import records
    from .orders import order_alpha
    t0 = time.perf_counter()
    result = order_alpha(args.n, args.base)
    elapsed = time.perf_counter() - t0
    _emit(records.order_record(result, elapsed), args.format)
    return EXIT_OK


def cmd_selftest(args: argparse.Namespace) -> int:
    from . import records
    from .selftest import run_selftest
    result = run_selftest()
    _emit(records.selftest_record(result.passed, result.checks_run,
                                  list(result.failures)), args.format)
    if not result.passed:
        first = result.first_failure
        _log(f"selftest FAILED ({len(result.failures)} of "
             f"{result.checks_run} checks); first: {first.describe()}")
        return EXIT_SELFTEST_FAILURE
    return EXIT_OK


def render_text(doc: Dict[str, object]) -> str:
    kind = doc["record"]
    lines: List[str] = []
    skip = {"record", "format_version", "library_version"}
    if kind == "audit":
        lines.append(f"audit n_range={doc['n_range'][0]}.."
                     f"{doc['n_range'][1]} bases={len(doc['bases'])} "
                     f"all_passed={doc['all_passed']}")
        for row in doc["rows"]:
            if not row["coprime"]:
                lines.append(f"  n={row['n']} base=0x{row['base']} "
                             f"NOT COPRIME gcd=0x{row['gcd']}")
                continue
            failed = [r["rule"] for r in row["rules"] if not r["passed"]]
            status = "FAIL " + ",".join(failed) if failed else "ok"
            lines.append(
                f"  n={row['n']} base=0x{row['base']} "
                f"quarter={row['quarter_tag']} "
                f"congruence={row['fermat_congruence_holds']} "
                f"prime={row['pepin_prime']} "
                f"class={row['classification']} {status}")
    elif kind == "factor":
        lines.append(f"factor n={doc['n']} k_max={doc['k_max']} "
                     f"found={len(doc['found'])}")
        for d in doc["found"]:
            lines.append(f"  k={d['k']} p={int(d['p'], 16)} "
                         f"prime={d['prime']} "
                         f"form_valid={d['divisor_form_valid']}")
        for v in doc["violations"]:
            lines.append(f"  VIOLATION k={v['k']}: {v['reason']}")
    elif kind == "selftest":
        lines.append(f"selftest passed={doc['passed']} "
                     f"checks_run={doc['checks_run']}")
        for f in doc["failures"]:
            lines.append(f"  FAIL {f['check']} [{f['subject']}] "
                         f"expected={f['expected']} actual={f['actual']}")
    else:
        lines.append(str(kind))
        for key, value in doc.items():
            if key in skip:
                continue
            if isinstance(value, dict):
                inner = " ".join(f"{k}={v}" for k, v in value.items())
                lines.append(f"  {key}: {inner}")
            elif isinstance(value, list):
                for item in value:
                    lines.append(f"  {key}[]: {item}")
            else:
                lines.append(f"  {key}: {value}")
    return "\n".join(lines) + "\n"


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("json", "text"),
                        default="json",
                        help="output rendering (default json)")

    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Primality, pseudoprimality and divisor search for "
                    "numbers of the form 2^(2^n)+1.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pepin", parents=[common],
                       help="half-residue primality test (n >= 2)")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=_parse_base, default=3,
                   help="admissible bases: 3, 5, 10 (default 3)")
    p.add_argument("--allow-any-base", action="store_true",
                   help="run a non-admissible base anyway; the result "
                        "then carries no primality claim")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="directory for resumable chain state")
    p.add_argument("--checkpoint-every", type=_at_least(int, 1),
                   metavar="SQUARINGS",
                   help="checkpoint cadence in squarings (default: "
                        "the library's, checkpoint.DEFAULT_EVERY_SQUARINGS)")
    p.add_argument("--checkpoint-seconds", type=_at_least(float, 0),
                   metavar="SECONDS",
                   help="also checkpoint after this many seconds, "
                        "checked between blocks of squarings; 0 turns "
                        "it off (default: the library's, "
                        "checkpoint.DEFAULT_EVERY_SECONDS)")
    p.add_argument("--stop-after", type=int, metavar="INDEX",
                   help="write a checkpoint at this squaring index (>= 1) "
                        "and exit cleanly (resume by rerunning)")
    p.set_defaults(func=cmd_pepin)

    p = sub.add_parser("classify", parents=[common],
                       help="full verdict: primality, congruence, "
                            "quarter residue, rule audit")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=_parse_base, default=3)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("audit", parents=[common],
                       help="sweep the congruence rules over a grid")
    p.add_argument("--n-range", type=_parse_range, default=(5, 8),
                   metavar="LO..HI",
                   help="indices to audit (default 5..8)")
    p.add_argument("--bases", type=_parse_bases, default=None,
                   metavar="B1,B2,...",
                   help="bases to audit (default: first 50 primes)")
    p.add_argument("--report", metavar="PATH",
                   help="also write the JSON record to this file")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("factor", parents=[common],
                       help="search divisors of the form k*2^(n+2)+1")
    p.add_argument("n", type=int)
    p.add_argument("--k-max", type=int, default=1000, metavar="K")
    p.add_argument("--prime-filter", action="store_true",
                   help="skip composite candidate divisors")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("order", parents=[common],
                       help="multiplicative order as a power of two")
    p.add_argument("n", type=int)
    p.add_argument("--base", type=_parse_base, default=3)
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("selftest", parents=[common],
                       help="deterministic cross-check battery")
    p.set_defaults(func=cmd_selftest)
    return parser


@contextlib.contextmanager
def _one_blas_thread():
    """OPENBLAS_NUM_THREADS=1 while the command runs, unless the caller
    set it; afterwards os.environ is as it was."""
    if _BLAS_THREADS in os.environ:
        yield
        return
    os.environ[_BLAS_THREADS] = "1"
    try:
        yield
    finally:
        os.environ.pop(_BLAS_THREADS, None)


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    from .errors import CheckpointError, FermatLabError
    try:
        with _one_blas_thread():
            return args.func(args)
    except CheckpointError as err:
        _log(f"refused: {err}")
        return EXIT_CORRUPT_CHECKPOINT
    except (FermatLabError, ValueError, OSError) as err:
        _log(str(err))
        return EXIT_USAGE


def entry() -> None:
    """The process entry of `python -m fermatlab` and of the `fermatlab`
    console script: main(), then exit with its code.

    gc.freeze() moves every object alive at the end of the call into the
    permanent generation, which the collection run at interpreter exit
    skips; that collection would otherwise walk all that numpy, argparse,
    json and fermatlab made at import: about 16 ms of a call that loads
    numpy, 7 of one that does not.  Atexit handlers and stdio flushing
    run as before.  main() itself keeps the normal collector, for
    callers that run it many times in one process."""
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
