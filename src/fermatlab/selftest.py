"""Built-in cross-check battery: fold path vs brute force, plus fixtures.

Everything here is deterministic (fixed RNG seed, no timing, no
environment probes), so two runs of `fermatlab selftest` on the same
build produce byte-identical records.  The checks call through module
attributes (arith.reduce_fold, not a local alias) on purpose: corrupting
one of those functions at runtime must make the battery fail, which is
itself tested.

Scope is deliberately small (n <= 8 and a few hundred random cases,
plus a few chains at n = arith.FFT_MIN_INDEX and one batch of n = 12
chains): this is a smoke screen for broken arithmetic, not the full
property suite in tests/.  The chains at the crossovers go through
mod_square_chain and mod_square_chains like every real chain, so they
check the FFT backend when numpy imports and the integer multiply when
it does not; the battery runs the same checks either way.
"""

from __future__ import annotations

import random
from typing import List, NamedTuple, Tuple

from . import arith, factors, oracle, orders, primality

SELFTEST_SEED = 0x5EED
RANDOM_CASES_PER_INDEX = 200


class SelftestResult(NamedTuple):
    passed: bool
    checks_run: int
    failures: Tuple[oracle.OracleReport, ...]

    @property
    def first_failure(self):
        return self.failures[0] if self.failures else None


def _report(check: str, subject: str, expected, actual) -> oracle.OracleReport:
    expected_s = str(expected)
    actual_s = str(actual)
    return oracle.OracleReport(check=check, subject=subject,
                               agreed=expected_s == actual_s,
                               expected=expected_s, actual=actual_s)


def _check_fold_vs_division(rng: random.Random) -> List[oracle.OracleReport]:
    out = []
    fixtures = [
        (1 << 33, 5),
        (arith.fermat_value(5), 5),
        (1 << 32, 5),
        (0, 0),
    ]
    for x, n in fixtures:
        got = arith.reduce_fold(x, n).value
        want = oracle.naive_mod(x, arith.fermat_value(n))
        out.append(_report("reduce-fold-vs-division", f"x=2^..., n={n}",
                           want, got))
    for n in range(0, 6):
        m = arith.fermat_value(n)
        bits = 4 * (1 << n)
        for _ in range(RANDOM_CASES_PER_INDEX):
            x = rng.getrandbits(bits)
            got = arith.reduce_fold(x, n).value
            want = oracle.naive_mod(x, m)
            if got != want:
                out.append(_report("reduce-fold-vs-division",
                                   f"n={n} x={x:#x}", want, got))
    out.append(_report("reduce-fold-vs-division",
                       "random sweep n<=5 complete", True, True))
    return out


def _check_oracle_self_consistency(rng: random.Random
                                   ) -> List[oracle.OracleReport]:
    # two independent slow reductions must agree before either is trusted
    out = []
    for _ in range(100):
        x = rng.getrandbits(96)
        m = rng.randrange(3, 1 << 40) | 1
        a = oracle.naive_mod(x, m)
        b = oracle.shift_subtract_mod(x, m)
        if a != b:
            out.append(_report("division-vs-shift-subtract",
                               f"x={x:#x} m={m}", a, b))
    out.append(_report("division-vs-shift-subtract", "100 random cases",
                       True, True))
    return out


def _check_square_chains(rng: random.Random) -> List[oracle.OracleReport]:
    out = []
    fixtures = [
        (2, 3, 2, 13),       # 3^(2^2) mod 17
        (2, 3, 3, 16),       # 3^(2^3) mod 17, the n=2 half residue
        (5, 2, 5, 1 << 32),  # 2^(2^5) mod F_5 = -1
    ]
    for n, base, count, want in fixtures:
        got = arith.mod_square_chain(arith.reduce_fold(base, n), count).value
        out.append(_report("square-chain-fixture",
                           f"n={n} base={base} count={count}", want, got))
    for n in range(0, 6):
        m = arith.fermat_value(n)
        for _ in range(20):
            base = rng.randrange(2, 1 << 16)
            count = rng.randrange(0, 40)
            got = arith.mod_square_chain(arith.reduce_fold(base, n),
                                         count).value
            want = oracle.naive_pow(base, 1 << count, m)
            if got != want:
                out.append(_report("square-chain-vs-pow",
                                   f"n={n} base={base} count={count}",
                                   want, got))
    out.append(_report("square-chain-vs-pow", "random sweep complete",
                       True, True))
    return out


def _check_crossover_chains(rng: random.Random
                            ) -> List[oracle.OracleReport]:
    out = []
    n = arith.FFT_MIN_INDEX
    m = arith.fermat_value(n)
    top = m - 1
    for value in [0, 1, 2, top - 1, top,
                  *(rng.randrange(top + 1) for _ in range(10))]:
        for count in (0, rng.randrange(1, 40)):
            got = arith.mod_square_chain(arith.FermatResidue(n, value),
                                         count).value
            want = oracle.naive_pow(value, 1 << count, m)
            if got != want:
                out.append(_report("crossover-chain-vs-pow",
                                   f"n={n} x={value:#x} count={count}",
                                   want, got))
    out.append(_report("crossover-chain-vs-pow", f"n={n} sweep complete",
                       True, True))
    return out


def _check_batched_chains(rng: random.Random
                          ) -> List[oracle.OracleReport]:
    # n = 12 chains enough to be squared together, and a batch of one
    # at the crossover, against builtin pow
    out = []
    for n, rows in ((12, arith.FFT_MIN_BATCH[12]), (arith.FFT_MIN_INDEX, 1)):
        m = arith.fermat_value(n)
        top = m - 1
        values = [top, 0, 1, *(rng.randrange(top + 1)
                               for _ in range(rows))][:rows]
        count = rng.randrange(1, 40)
        got = arith.mod_square_chains(
            [arith.FermatResidue(n, value) for value in values], count)
        for value, residue in zip(values, got):
            want = pow(value, 1 << count, m)
            if residue.value != want:
                out.append(_report("batched-chains-vs-pow",
                                   f"n={n} x={value:#x} count={count}",
                                   want, residue.value))
    out.append(_report("batched-chains-vs-pow", "batches complete",
                       True, True))
    return out


def _check_pepin_verdicts() -> List[oracle.OracleReport]:
    out = []
    for n, want in [(2, True), (3, True), (4, True), (5, False)]:
        got, _ = primality.pepin_test(n, 3)
        out.append(_report("pepin-verdict", f"n={n}", want, got))
        # independent certification by trial division
        value = arith.fermat_value(n)
        factor = oracle.trial_division(value)
        out.append(_report("pepin-vs-trial-division", f"n={n}",
                           factor is None, got))
    return out


def _check_quarter_and_congruence() -> List[oracle.OracleReport]:
    out = []
    quarter_fixtures = [
        (5, 2, primality.QuarterTag.PLUS_ONE),
        (5, 3, primality.QuarterTag.OTHER),
        (2, 3, primality.QuarterTag.OTHER),
    ]
    for n, base, want in quarter_fixtures:
        q = primality.quarter_residue(n, base)
        out.append(_report("quarter-class", f"n={n} base={base}",
                           want.value, q.tag.value))
        m = arith.fermat_value(n)
        want_res = oracle.naive_pow(base, (m - 1) // 4, m)
        out.append(_report("quarter-residue-vs-pow", f"n={n} base={base}",
                           want_res, q.residue.value))
    congruence_fixtures = [(5, 2, True), (5, 3, False), (2, 3, True)]
    for n, base, want in congruence_fixtures:
        got = primality.fermat_congruence(n, base)
        out.append(_report("fermat-congruence", f"n={n} base={base}",
                           want, got))
        m = arith.fermat_value(n)
        want_pow = oracle.naive_pow(base, m - 1, m) == 1
        out.append(_report("fermat-congruence-vs-pow", f"n={n} base={base}",
                           want_pow, got))
    return out


def _check_orders() -> List[oracle.OracleReport]:
    out = []
    r = orders.order_alpha(5, 2)
    out.append(_report("order-alpha", "n=5 base=2", 6, r.alpha))
    out.append(_report("order-bound", "n=5 base=2", True, r.bound_satisfied))
    r = orders.order_alpha(2, 3)
    out.append(_report("order-alpha", "n=2 base=3", 4, r.alpha))
    r = orders.order_alpha(5, 3)
    out.append(_report("order-alpha", "n=5 base=3 marker", None, r.alpha))
    for n in range(0, 4):
        m = arith.fermat_value(n)
        for base in range(1, 20):
            if base % m == 0:
                continue
            got = orders.order_alpha(n, base)
            want = oracle.naive_order(base, m)
            got_order = got.order
            if got_order != want:
                out.append(_report("order-vs-naive", f"n={n} base={base}",
                                   want, got_order))
    out.append(_report("order-vs-naive", "n<=3 bases<20 complete",
                       True, True))
    return out


def _check_factors() -> List[oracle.OracleReport]:
    out = []
    found = factors.lucas_search(5, 10)
    got = [(d.k, d.p) for d in found]
    out.append(_report("divisor-search", "n=5 k_max=10", [(5, 641)], got))
    if found:
        d = found[0]
        out.append(_report("divisor-form", "n=5 p=641", True,
                           factors.validate_divisor_form(d)))
        cof = factors.cofactor(d)
        out.append(_report("cofactor", "n=5 p=641", 6700417, cof))
        out.append(_report("cofactor-primality", "6700417", None,
                           oracle.trial_division(cof)))
    found6 = factors.lucas_search(6, 1100)
    got6 = [(d.k, d.p) for d in found6]
    out.append(_report("divisor-search", "n=6 k_max=1100",
                       [(1071, 274177)], got6))
    # the sieved search against every k tested by builtin pow
    n, k_max = 9, 2000
    plain = [k for k in range(1, k_max + 1)
             if pow(2, 1 << n, (k << (n + 2)) + 1) == k << (n + 2)]
    out.append(_report("divisor-search-vs-plain-scan",
                       f"n={n} k_max={k_max}", plain,
                       [d.k for d in factors.lucas_search(n, k_max)]))
    out.append(_report("trial-division-crosscheck", "F_5 bound=10^4",
                       641, oracle.trial_division(arith.fermat_value(5),
                                                  10 ** 4)))
    return out


def _check_classify() -> List[oracle.OracleReport]:
    out = []
    fixtures = [
        (5, 2, primality.Classification.PSEUDOPRIME_TO_BASE),
        (5, 3, primality.Classification.COMPOSITE_NON_PSEUDOPRIME),
        (4, 3, primality.Classification.PRIME),
        (2, 3, primality.Classification.PRIME),
    ]
    for n, base, want in fixtures:
        verdict = primality.classify_report(n, base)
        # a failed rule is a counterexample, so it fails the check too
        failed = [r.rule for r in verdict.violations]
        out.append(_report("classification", f"n={n} base={base}",
                           (want.value, []),
                           (verdict.classification.value, failed)))
    return out


def run_selftest() -> SelftestResult:
    rng = random.Random(SELFTEST_SEED)
    groups = [
        ("fold-vs-division", lambda: _check_fold_vs_division(rng)),
        ("oracle-self-consistency",
         lambda: _check_oracle_self_consistency(rng)),
        ("square-chains", lambda: _check_square_chains(rng)),
        ("crossover-chains", lambda: _check_crossover_chains(rng)),
        ("batched-chains", lambda: _check_batched_chains(rng)),
        ("pepin-verdicts", _check_pepin_verdicts),
        ("quarter-and-congruence", _check_quarter_and_congruence),
        ("orders", _check_orders),
        ("factors", _check_factors),
        ("classify", _check_classify),
    ]
    reports: List[oracle.OracleReport] = []
    for name, run in groups:
        # broken arithmetic can also surface as an exception (a range
        # error); that is a failure, not a crash
        try:
            reports.extend(run())
        except Exception as err:
            reports.append(oracle.OracleReport(
                check=f"{name}-crashed", subject=type(err).__name__,
                agreed=False, expected="no exception", actual=str(err)))
    failures = tuple(r for r in reports if not r.agreed)
    return SelftestResult(passed=not failures, checks_run=len(reports),
                          failures=failures)
