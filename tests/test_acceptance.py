"""Release gate: nine checks, one printed PASS/FAIL line each.

Each check exercises the package the way a user would (the CLI ones in a
fresh interpreter) and pins the ground truth this library is trusted
for.  Timing budgets are generous for commodity hardware but real: a
regression that makes the half-residue chains quadratic should fail
here, not in production.
"""

import json
import math
import random
import time

from conftest import audit_violations, run_cli_subprocess

from fermatlab.arith import fermat_value, mod_mul, reduce_fold
from fermatlab.factors import lucas_search, validate_divisor_form
from fermatlab.oracle import naive_mod, naive_order
from fermatlab.orders import order_alpha
from fermatlab.primality import (
    QuarterTag,
    audit_range,
    chain_taps,
    default_audit_bases,
    fermat_congruence,
    fermat_is_prime,
    quarter_residue,
)
from fermatlab.records import strip_timing


def _verdict(number: int, label: str, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number} {label}: {status} ({detail})")
    assert ok, f"acceptance {number} {label}: {detail}"


def _pepin_cli(n: int, *extra: str):
    proc = run_cli_subprocess("pepin", str(n), *extra)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_1_pepin_verdicts_and_budget():
    want = {n: n <= 4 for n in range(2, 13)}
    t0 = time.perf_counter()
    got = {n: _pepin_cli(n)["pepin_prime"] for n in range(2, 13)}
    small_elapsed = time.perf_counter() - t0
    t0 = time.perf_counter()
    f14_prime = _pepin_cli(14)["pepin_prime"]
    f14_elapsed = time.perf_counter() - t0
    ok = (got == want and not f14_prime
          and small_elapsed < 10.0 and f14_elapsed < 60.0)
    _verdict(1, "half-residue verdicts n=2..12,14", ok,
             f"n<=12 in {small_elapsed:.2f}s (budget 10s), "
             f"n=14 in {f14_elapsed:.2f}s (budget 60s), "
             f"mismatches={[n for n in want if got[n] != want[n]]}, "
             f"f14_composite={not f14_prime}")


def test_2_quarter_classes_on_f5():
    m = fermat_value(5)
    exponent = (m - 1) // 4
    q2 = quarter_residue(5, 2)
    q3 = quarter_residue(5, 3)
    ok = (q2.tag is QuarterTag.PLUS_ONE
          and q2.residue.value == pow(2, exponent, m) == 1
          and q3.tag is QuarterTag.OTHER
          and q3.residue.value == pow(3, exponent, m))
    _verdict(2, "quarter residues of 2 and 3 on F_5 (exact)", ok,
             f"base2={q2.tag.value}/{q2.residue.to_hex()}, "
             f"base3={q3.tag.value}/{q3.residue.to_hex()}")


def test_3_pseudoprime_quarter_audit():
    bases = default_audit_bases()
    report = audit_range(range(5, 13), bases)
    pseudo_rows = 0
    bad = []
    per_n = {n: 0 for n in range(5, 13)}
    for row in report.rows:
        if not row.coprime:
            continue
        v = row.verdict
        if v.fermat_congruence_holds and not v.pepin_prime:
            pseudo_rows += 1
            per_n[row.n] += 1
            if v.quarter.tag is not QuarterTag.PLUS_ONE:
                bad.append((row.n, row.base))
    ok = (not audit_violations(report) and not bad
          and all(count >= 1 for count in per_n.values()))
    _verdict(3, "pseudoprime cases have quarter residue 1 (n=5..12)", ok,
             f"rows={len(report.rows)}, pseudoprime_cases={pseudo_rows}, "
             f"violations={len(audit_violations(report))}, "
             f"offenders={bad}")


def test_4_base3_quarter_never_minus_one():
    tags = {n: quarter_residue(n, 3).tag for n in range(5, 13)}
    offenders = [n for n, tag in tags.items() if tag is QuarterTag.MINUS_ONE]
    _verdict(4, "base-3 quarter residue is never -1 (n=5..12)",
             not offenders,
             f"tags={[t.value for t in tags.values()]}, "
             f"offenders={offenders}")


def test_5_base3_quarter_one_iff_pseudoprime():
    mismatches = []
    for n in range(5, 13):
        quarter_one = quarter_residue(n, 3).tag is QuarterTag.PLUS_ONE
        pseudo = fermat_congruence(n, 3) and not fermat_is_prime(n)
        if quarter_one != pseudo:
            mismatches.append(n)
    _verdict(5, "base-3 quarter residue 1 iff Fermat pseudoprime (n=5..12)",
             not mismatches, f"mismatches={mismatches}")


def test_6_reduction_and_order_match_oracles():
    rng = random.Random(0xACCE)
    fold_cases = 0
    fold_bad = 0
    for n in range(0, 9):
        m = fermat_value(n)
        bits = 4 * (1 << n)
        for _ in range(10 ** 4):
            x = rng.getrandbits(bits)
            fold_cases += 1
            if reduce_fold(x, n).value != naive_mod(x, m):
                fold_bad += 1
    order_cases = 0
    order_bad = 0
    for n in range(0, 5):
        m = fermat_value(n)
        for base in range(1, 50):
            if math.gcd(base, m) != 1:
                continue
            order_cases += 1
            if order_alpha(n, base).order != naive_order(base, m):
                order_bad += 1
    ok = fold_bad == 0 and order_bad == 0
    _verdict(6, "fold reduction and order agree with brute force", ok,
             f"fold {fold_cases - fold_bad}/{fold_cases}, "
             f"order {order_cases - order_bad}/{order_cases}")


def test_7_divisor_search_finds_known_factors():
    t0 = time.perf_counter()
    doc5 = json.loads(run_cli_subprocess("factor", "5",
                                         "--k-max", "10").stdout)
    doc6 = json.loads(run_cli_subprocess("factor", "6",
                                         "--k-max", "1100").stdout)
    elapsed = time.perf_counter() - t0
    found5 = [(d["k"], int(d["p"], 16), d["divisor_form_valid"])
              for d in doc5["found"]]
    found6 = [(d["k"], int(d["p"], 16), d["divisor_form_valid"])
              for d in doc6["found"]]
    ok = (found5 == [(5, 641, True)]
          and found6 == [(1071, 274177, True)]
          and elapsed < 5.0)
    _verdict(7, "divisor search finds 641 and 274177 with valid form", ok,
             f"F_5 -> {found5}, F_6 -> {found6}, "
             f"elapsed {elapsed:.2f}s (budget 5s)")


def test_8_chain_tap_consistency():
    rng = random.Random(0xC0FFEE)
    checked = 0
    bad = []
    while checked < 200:
        n = rng.randint(2, 10)
        base = rng.randint(2, 10 ** 6)
        if math.gcd(base, fermat_value(n)) != 1:
            continue
        taps = chain_taps(n, base)
        if mod_mul(taps.quarter, taps.quarter) != taps.half \
                or mod_mul(taps.half, taps.half) != taps.full:
            bad.append((n, base))
        checked += 1
    _verdict(8, "squaring quarter gives half gives full (200 random pairs)",
             not bad, f"checked={checked}, failures={bad}")


def test_9_interrupt_and_resume_is_lossless(tmp_path):
    clean = strip_timing(json.loads(run_cli_subprocess("pepin",
                                                       "10").stdout))
    rng = random.Random(0x5EED)
    stops = sorted(rng.sample(range(1, 1023), 5))
    mismatched = []
    for stop in stops:
        directory = tmp_path / f"stop{stop}"
        paused = run_cli_subprocess(
            "pepin", "10", "--checkpoint-dir", str(directory),
            "--stop-after", str(stop))
        assert paused.returncode == 0, paused.stderr
        assert json.loads(paused.stdout)["record"] == "pepin-paused"
        resumed = run_cli_subprocess(
            "pepin", "10", "--checkpoint-dir", str(directory))
        assert resumed.returncode == 0, resumed.stderr
        assert "resuming" in resumed.stderr
        if strip_timing(json.loads(resumed.stdout)) != clean:
            mismatched.append(stop)
    _verdict(9, "interrupted runs resume to the identical record",
             not mismatched, f"stops={stops}, mismatched={mismatched}")
