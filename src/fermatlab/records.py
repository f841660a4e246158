"""Machine-readable CLI records and their construction.

Every command emits exactly one JSON object with a "record" field naming
its shape; the shapes are pinned by schemas/cli_output.schema.json which
ships inside the package.  Naturals (bases, residues, divisors, gcds)
are rendered as lowercase hex without prefix or leading zeros, exactly
as arith.to_hex produces them.

Records avoid anything nondeterministic except elapsed_seconds: the
resume test compares an interrupted-and-resumed run against a clean run
field by field, and only timing may differ.  Resume provenance therefore
goes to the log on stderr, never into the record.
"""

from __future__ import annotations

import json
from importlib import resources
from typing import Dict, List, Sequence

from .arith import to_hex
from .checkpoint import CHAIN_KIND
from .factors import CandidateDivisor, cofactor, validate_divisor_form
from .orders import OrderResult
from .oracle import OracleReport
from .primality import PEPIN_BASE, AuditReport, QuarterClass, \
    RuleOutcome, Verdict

RECORD_FORMAT_VERSION = 1
LIBRARY_VERSION = "0.1.0"

SCHEMA_RESOURCE = "schemas/cli_output.schema.json"


def load_schema() -> dict:
    """The published schema for every record this module can build."""
    path = resources.files(__package__).joinpath(SCHEMA_RESOURCE)
    return json.loads(path.read_text(encoding="utf-8"))


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


def pepin_record(n: int, base: int, admissible: bool, pepin_prime: bool,
                 half_residue_hex: str, elapsed: float) -> Dict[str, object]:
    doc = _envelope("pepin")
    doc.update({
        "n": n,
        "base": to_hex(base),
        "admissible_base": admissible,
        "pepin_prime": pepin_prime,
        "half_residue": half_residue_hex,
        "squarings": (1 << n) - 1,
        "elapsed_seconds": elapsed,
    })
    return doc


def paused_record(n: int, base: int, stopped_after: int,
                  checkpoint_path: str, elapsed: float) -> Dict[str, object]:
    doc = _envelope("pepin-paused")
    doc.update({
        "n": n,
        "base": to_hex(base),
        "chain_kind": CHAIN_KIND,
        "stopped_after": stopped_after,
        "total_squarings": (1 << n) - 1,
        "checkpoint": checkpoint_path,
        "elapsed_seconds": elapsed,
    })
    return doc


def classify_record(verdict: Verdict, elapsed: float) -> Dict[str, object]:
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
        "elapsed_seconds": elapsed,
    })
    return doc


def audit_record(report: AuditReport, n_range: List[int], bases: List[int],
                 elapsed: float) -> Dict[str, object]:
    rows: List[Dict[str, object]] = []
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
        rows.append({
            "n": row.n,
            "base": to_hex(row.base),
            "coprime": True,
            "quarter_tag": v.quarter.tag.value,
            "fermat_congruence_holds": v.fermat_congruence_holds,
            "pepin_prime": v.pepin_prime,
            "classification": v.classification.value,
            "rules": _rules(v.rules),
        })
    doc = _envelope("audit")
    doc.update({
        "n_range": [n_range[0], n_range[-1]],
        "bases": [to_hex(b) for b in bases],
        "rows": rows,
        "all_passed": report.all_passed,
        "violation_count": len(report.violations),
        "elapsed_seconds": elapsed,
    })
    return doc


def factor_record(n: int, k_max: int, prime_filter: bool,
                  found: List[CandidateDivisor],
                  elapsed: float) -> Dict[str, object]:
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
        "elapsed_seconds": elapsed,
    })
    return doc


def order_record(result: OrderResult, elapsed: float) -> Dict[str, object]:
    doc = _envelope("order")
    doc.update({
        "n": result.n,
        "base": to_hex(result.base),
        "alpha": result.alpha,
        "not_totally_even": result.not_totally_even,
        "bound_satisfied": result.bound_satisfied,
        "squarings_used": result.squarings_used,
        "elapsed_seconds": elapsed,
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


def dump(doc: Dict[str, object]) -> str:
    return json.dumps(doc, indent=2, sort_keys=False) + "\n"


def strip_timing(doc: Dict[str, object]) -> Dict[str, object]:
    """Copy of a record with timing fields removed (for equality checks)."""
    return {k: v for k, v in doc.items() if k != "elapsed_seconds"}
