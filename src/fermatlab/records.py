"""Machine-readable CLI records and their construction.

Every command emits exactly one JSON object with a "record" field naming
its shape; the shapes are pinned by schemas/cli_output.schema.json which
ships inside the package.  Naturals (bases, residues, divisors, gcds)
are rendered as lowercase hex without prefix or leading zeros, exactly
as arith.to_hex produces them.

Each builder is a function of its command's result alone and holds
nothing nondeterministic; the CLI adds elapsed_seconds, the one timing
field, as the record's last key when it writes the record.  The resume
test compares an interrupted-and-resumed run against a clean run field
by field, and only timing may differ.  Resume provenance therefore goes
to the log on stderr, never into the record.

Every file the CLI writes, a record or a checkpoint, goes through
replacing, so that its path never holds a partial file.
"""

from __future__ import annotations

import contextlib
import errno
import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Sequence

from .arith import FermatResidue, to_hex

# Only annotations name these; each builder imports what it calls, so
# that a command loads no module it does not run.
if TYPE_CHECKING:
    from .factors import CandidateDivisor
    from .orders import OrderResult
    from .oracle import OracleReport
    from .primality import AuditReport, QuarterClass, RuleOutcome, Verdict

RECORD_FORMAT_VERSION = 1
LIBRARY_VERSION = "0.1.0"

def _envelope(record: str) -> Dict[str, object]:
    return {
        "record": record,
        "format_version": RECORD_FORMAT_VERSION,
        "library_version": LIBRARY_VERSION,
    }


def _quarter(q: QuarterClass) -> Dict[str, object]:
    return {"tag": q.tag.value, "residue": q.residue.to_hex()}


def _rules(rules: Sequence[RuleOutcome]) -> List[Dict[str, object]]:
    out: List[Dict[str, object]] = []
    for r in rules:
        entry: Dict[str, object] = {"rule": r.rule, "passed": r.passed}
        if not r.passed:
            entry["detail"] = r.detail
        out.append(entry)
    return out


def pepin_record(n: int, base: int,
                 half: FermatResidue) -> Dict[str, object]:
    from .primality import PEPIN_ADMISSIBLE_BASES
    doc = _envelope("pepin")
    doc.update({
        "n": n,
        "base": to_hex(base),
        "admissible_base": base in PEPIN_ADMISSIBLE_BASES,
        "pepin_prime": half.is_minus_one,
        "half_residue": half.to_hex(),
        "squarings": (1 << n) - 1,
    })
    return doc


def paused_record(n: int, base: int, stopped_after: int,
                  checkpoint_path: str) -> Dict[str, object]:
    from .checkpoint import CHAIN_KIND
    doc = _envelope("pepin-paused")
    doc.update({
        "n": n,
        "base": to_hex(base),
        "chain_kind": CHAIN_KIND,
        "stopped_after": stopped_after,
        "total_squarings": (1 << n) - 1,
        "checkpoint": checkpoint_path,
    })
    return doc


def classify_record(verdict: Verdict) -> Dict[str, object]:
    from .primality import PEPIN_BASE
    doc = _envelope("classify")
    doc.update({
        "n": verdict.n,
        "base": to_hex(verdict.base),
        "pepin_base": to_hex(PEPIN_BASE),
        "pepin_prime": verdict.pepin_prime,
        "fermat_congruence_holds": verdict.fermat_congruence_holds,
        "quarter": _quarter(verdict.quarter),
        "half_residue": verdict.half_residue.to_hex(),
        "fermat_residue": verdict.fermat_residue.to_hex(),
        "classification": verdict.classification.value,
        "audit_rules": _rules(verdict.rules),
        "squarings": verdict.squarings,
    })
    return doc


def audit_record(report: AuditReport, n_range: List[int],
                 bases: List[int]) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
    violation_count = 0
    for row in report.rows:
        if not row.coprime:
            rows.append({
                "n": row.n,
                "base": to_hex(row.base),
                "coprime": False,
                "gcd": to_hex(row.gcd),
            })
            continue
        v = row.verdict
        rules = v.rules
        violation_count += sum(not r.passed for r in rules)
        rows.append({
            "n": row.n,
            "base": to_hex(row.base),
            "coprime": True,
            "quarter_tag": v.quarter_tag.value,
            "fermat_congruence_holds": v.fermat_congruence_holds,
            "pepin_prime": v.pepin_prime,
            "classification": v.classification.value,
            "rules": _rules(rules),
        })
    doc = _envelope("audit")
    doc.update({
        "n_range": [n_range[0], n_range[-1]],
        "bases": [to_hex(b) for b in bases],
        "rows": rows,
        "all_passed": violation_count == 0,
        "violation_count": violation_count,
    })
    return doc


def factor_record(n: int, k_max: int, prime_filter: bool,
                  found: List[CandidateDivisor]) -> Dict[str, object]:
    from .factors import cofactor, validate_divisor_form
    entries: List[Dict[str, object]] = []
    violations: List[Dict[str, object]] = []
    for d in found:
        valid = validate_divisor_form(d)
        entries.append({
            "k": d.k,
            "p": to_hex(d.p),
            "divides": True,
            "k_is_one_or_power_of_two": d.k_is_one_or_power_of_two,
            "prime": d.prime,
            "divisor_form_valid": valid,
            "cofactor": to_hex(cofactor(d)),
        })
        if d.prime is True and not valid:
            violations.append({
                "k": d.k,
                "p": to_hex(d.p),
                "reason": "prime divisor of a composite value has "
                          "k = 1 or k a power of two",
            })
    doc = _envelope("factor")
    doc.update({
        "n": n,
        "k_max": k_max,
        "prime_filter": prime_filter,
        "found": entries,
        "violations": violations,
    })
    return doc


def order_record(result: OrderResult) -> Dict[str, object]:
    doc = _envelope("order")
    doc.update({
        "n": result.n,
        "base": to_hex(result.base),
        "alpha": result.alpha,
        "not_totally_even": result.not_totally_even,
        "bound_satisfied": result.bound_satisfied,
        "squarings_used": result.squarings_used,
    })
    return doc


def selftest_record(passed: bool, checks_run: int,
                    failures: List[OracleReport]) -> Dict[str, object]:
    doc = _envelope("selftest")
    doc.update({
        "passed": passed,
        "checks_run": checks_run,
        "failures": [
            {
                "check": r.check,
                "subject": r.subject,
                "expected": r.expected,
                "actual": r.actual,
            }
            for r in failures
        ],
    })
    return doc


@contextlib.contextmanager
def replacing(path):
    """A text file open for writing that takes the place of path only
    when the block ends without an exception.

    It is a temporary file beside path, created at once, so an unusable
    path fails before the block runs; so does a directory, which it
    could not replace.  It is flushed and fsynced before the replace.
    On any failure it is removed and path, if it exists, is left as it
    was.
    """
    target = Path(path)
    if target.is_dir() and not target.is_symlink():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR),
                                str(path))
    tmp = target.with_name(f".{target.name}.tmp.{os.getpid()}")
    out = open(tmp, "w", encoding="utf-8")
    try:
        with out:
            yield out
            out.flush()
            os.fsync(out.fileno())
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump(doc: Dict[str, object]) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def strip_timing(doc: Dict[str, object]) -> Dict[str, object]:
    """Copy of a record with timing fields removed (for equality checks)."""
    return {k: v for k, v in doc.items() if k != "elapsed_seconds"}
