"""Half-residue test, quarter classification, congruence and verdicts."""

import multiprocessing
import threading

import pytest
from hypothesis import given, settings, strategies as st

from conftest import KNOWN_FACTORS, pseudoprime_base, run_cli

from fermatlab import factors, oracle, primality
from fermatlab.arith import FermatResidue, fermat_value, max_index, \
    reduce_fold
from fermatlab.errors import (
    BaseNotCoprimeError,
    IndexBelowTwoError,
    IndexOutOfRangeError,
    NonAdmissibleBaseError,
)
from fermatlab.factors import lucas_search
from fermatlab.primality import (
    Classification,
    QuarterClass,
    QuarterTag,
    audit_range,
    chain_taps,
    classify_report,
    default_audit_bases,
    fermat_congruence,
    fermat_is_prime,
    pepin_test,
    quarter_residue,
    require_coprime,
)


@pytest.fixture(autouse=True)
def fresh_prime_cache():
    primality.reset_prime_cache()
    yield
    primality.reset_prime_cache()


class TestPepin:
    def test_prime_fixtures(self):
        prime, half = pepin_test(2, 3)
        assert prime and half.value == 16
        prime, half = pepin_test(3, 3)
        assert prime and half.value == 256
        prime, half = pepin_test(4, 3)
        assert prime and half.is_minus_one

    def test_composite_fixture(self):
        prime, half = pepin_test(5, 3)
        assert not prime
        assert not half.is_minus_one
        # cross-check the residue against the pow oracle
        m = fermat_value(5)
        assert half.value == oracle.naive_pow(3, (m - 1) // 2, m)

    def test_other_admissible_bases(self):
        for base in (5, 10):
            prime, half = pepin_test(2, base)
            assert prime and half.value == 16

    def test_verdicts_match_trial_division(self):
        for n in range(2, 6):
            prime, _ = pepin_test(n, 3)
            assert prime == (oracle.trial_division(fermat_value(n)) is None)

    def test_index_below_two(self):
        with pytest.raises(IndexBelowTwoError):
            pepin_test(1, 3)
        with pytest.raises(IndexBelowTwoError):
            pepin_test(0, 3)

    def test_non_admissible_base_rejected(self):
        with pytest.raises(NonAdmissibleBaseError):
            pepin_test(5, 2)

    def test_any_base_override(self):
        # base 2 half residue is 1, never -1: exactly why 2 is excluded
        prime, half = pepin_test(5, 2, allow_any_base=True)
        assert not prime and half.is_one
        prime, half = pepin_test(2, 2, allow_any_base=True)
        assert not prime and half.is_one

    def test_non_coprime_base(self):
        with pytest.raises(BaseNotCoprimeError) as info:
            pepin_test(5, 641 * 3, allow_any_base=True)
        assert info.value.gcd == 641

    def test_resume_reproduces_full_run(self):
        captured = {}

        def keep(i, v):
            captured[i] = v()

        _, full = pepin_test(8, 3, observer=keep)
        cut = 100
        prime, resumed = pepin_test(8, 3, resume_index=cut,
                                    resume_value=captured[cut])
        assert resumed.value == full.value

    def test_resume_validation(self):
        with pytest.raises(ValueError):
            pepin_test(5, 3, resume_index=5)  # no value supplied
        with pytest.raises(ValueError):
            pepin_test(5, 3, resume_index=99, resume_value=1)


class TestQuarterResidue:
    def test_base2_is_plus_one_on_f5(self):
        q = quarter_residue(5, 2)
        assert q.tag is QuarterTag.PLUS_ONE
        assert q.residue.is_one

    def test_base3_is_other_on_f5(self):
        q = quarter_residue(5, 3)
        assert q.tag is QuarterTag.OTHER
        assert q.residue.value == 0x63F2596A
        m = fermat_value(5)
        assert q.residue.value == oracle.naive_pow(3, (m - 1) // 4, m)

    def test_prime_case_fixture(self):
        q = quarter_residue(2, 3)
        assert q.tag is QuarterTag.OTHER
        assert q.residue.value == 13

    def test_preconditions(self):
        with pytest.raises(IndexBelowTwoError):
            quarter_residue(1, 3)
        with pytest.raises(BaseNotCoprimeError) as info:
            quarter_residue(5, 1282)
        assert info.value.gcd == 641

    def test_tag_matches_residue(self):
        # tag is a pure function of the residue value
        for n, base in [(2, 3), (3, 3), (4, 3), (5, 2), (5, 3), (6, 2)]:
            q = quarter_residue(n, base)
            if q.residue.is_one:
                assert q.tag is QuarterTag.PLUS_ONE
            elif q.residue.is_minus_one:
                assert q.tag is QuarterTag.MINUS_ONE
            else:
                assert q.tag is QuarterTag.OTHER


class TestFermatCongruence:
    def test_fixtures(self):
        assert fermat_congruence(5, 2) is True
        assert fermat_congruence(2, 3) is True
        assert fermat_congruence(5, 3) is False

    def test_against_pow_oracle(self):
        for n in range(2, 7):
            m = fermat_value(n)
            for base in (2, 3, 5, 7):
                want = oracle.naive_pow(base, m - 1, m) == 1
                assert fermat_congruence(n, base) == want

    def test_non_coprime(self):
        with pytest.raises(BaseNotCoprimeError):
            fermat_congruence(5, 641)


class TestChainTaps:
    @given(st.data())
    @settings(max_examples=30)
    def test_taps_are_nested_squares(self, data):
        from fermatlab.arith import mod_mul

        n = data.draw(st.integers(min_value=2, max_value=8))
        base = data.draw(st.integers(min_value=2, max_value=10 ** 6))
        m = fermat_value(n)
        if base % m == 0:
            return
        from math import gcd

        if gcd(base, m) != 1:
            return
        taps = chain_taps(n, base)
        assert mod_mul(taps.quarter, taps.quarter).value == taps.half.value
        assert mod_mul(taps.half, taps.half).value == taps.full.value


class TestClassify:
    def test_pseudoprime_to_base_two(self):
        v = classify_report(5, 2)
        assert v.classification is Classification.PSEUDOPRIME_TO_BASE
        assert not v.pepin_prime
        assert v.fermat_congruence_holds
        assert v.quarter.tag is QuarterTag.PLUS_ONE
        assert primality.PEPIN_BASE == 3

    def test_composite_non_pseudoprime_base_three(self):
        v = classify_report(5, 3)
        assert v.classification is Classification.COMPOSITE_NON_PSEUDOPRIME
        assert not v.fermat_congruence_holds
        assert v.quarter.tag is QuarterTag.OTHER

    def test_prime_cases(self):
        v = classify_report(4, 3)
        assert v.classification is Classification.PRIME
        assert v.quarter.tag is QuarterTag.OTHER
        assert classify_report(2, 3).classification is Classification.PRIME

    def test_verdict_internal_consistency(self):
        for n, base in [(2, 3), (4, 3), (5, 2), (5, 3), (6, 2), (6, 3)]:
            v = classify_report(n, base)
            assert (v.classification is Classification.PRIME) \
                == v.pepin_prime
            assert (v.classification is
                    Classification.PSEUDOPRIME_TO_BASE) \
                == (not v.pepin_prime and v.fermat_congruence_holds)

    def test_half_and_full_residues_exposed(self):
        v = classify_report(5, 2)
        assert v.half_residue.is_one
        assert v.fermat_residue.is_one
        m = fermat_value(5)
        assert v.half_residue.value == oracle.naive_pow(2, (m - 1) // 2, m)

    def test_squarings_accounting(self):
        assert classify_report(5, 3).squarings == 32
        assert classify_report(5, 2).squarings == 32 + 31

    def test_index_below_two(self):
        with pytest.raises(IndexBelowTwoError):
            classify_report(1, 3)



def failed(outcomes):
    return [r.rule for r in outcomes if not r.passed]


class TestAuditRules:
    def _quarter(self, n, tag):
        value = {QuarterTag.PLUS_ONE: 1,
                 QuarterTag.MINUS_ONE: 1 << (1 << n),
                 QuarterTag.OTHER: 7}[tag]
        return QuarterClass(tag, FermatResidue(n, value))

    def test_below_threshold_has_no_rules(self):
        out = primality._audit_rules(
            4, 3, False, True, self._quarter(4, QuarterTag.OTHER))
        assert out == ()

    def test_pseudoprime_requires_quarter_one(self):
        out = primality._audit_rules(
            5, 7, False, True, self._quarter(5, QuarterTag.OTHER))
        assert failed(out) == ["pseudoprime-quarter-one"]
        # only a failed rule says why
        assert [r.detail is None for r in out] == [False, True]

    def test_quarter_minus_one_requires_prime(self):
        out = primality._audit_rules(
            5, 7, False, False, self._quarter(5, QuarterTag.MINUS_ONE))
        assert failed(out) == ["quarter-minus-one-implies-prime"]

    def test_base3_never_minus_one(self):
        # both sides of the iff are false here, so only two rules fire
        out = primality._audit_rules(
            5, 3, False, False, self._quarter(5, QuarterTag.MINUS_ONE))
        assert set(failed(out)) == {
            "base3-quarter-not-minus-one",
            "quarter-minus-one-implies-prime",
        }

    def test_base3_iff_violated_by_quarter_one_without_pseudoprime(self):
        out = primality._audit_rules(
            5, 3, False, False, self._quarter(5, QuarterTag.PLUS_ONE))
        assert failed(out) == ["base3-pseudoprime-iff-quarter-one"]

    def test_base3_iff_violated_by_pseudoprime_without_quarter_one(self):
        out = primality._audit_rules(
            5, 3, False, True, self._quarter(5, QuarterTag.OTHER))
        assert set(failed(out)) == {
            "pseudoprime-quarter-one",
            "base3-pseudoprime-iff-quarter-one",
        }

    def test_consistent_inputs_pass(self):
        out = primality._audit_rules(
            5, 2, False, True, self._quarter(5, QuarterTag.PLUS_ONE))
        assert failed(out) == []

    def test_applicable_rule_lists(self):
        quarter = self._quarter(5, QuarterTag.OTHER)
        both = ["pseudoprime-quarter-one", "quarter-minus-one-implies-prime"]
        assert [r.rule for r in primality._audit_rules(
            5, 2, False, False, quarter)] == both
        assert [r.rule for r in primality._audit_rules(
            5, 3, False, False, quarter)] == both + [
                "base3-quarter-not-minus-one",
                "base3-pseudoprime-iff-quarter-one"]


class TestRealAudits:
    def test_no_violations_on_small_range(self):
        report = audit_range(range(5, 8), [2, 3, 5])
        assert report.all_passed
        assert len(report.rows) == 9

    def test_one_chain_per_row(self, monkeypatch):
        # the base-3 row decides primality for the other bases of its n,
        # so no row pays for a second chain
        counts = []
        real = primality.mod_square_chain

        def counting(a, count, observer=None):
            counts.append(count)
            return real(a, count, observer)

        monkeypatch.setattr(primality, "mod_square_chain", counting)
        report = audit_range(range(5, 8), [2, 3, 5])
        assert sum(counts) == 3 * ((1 << 5) + (1 << 6) + (1 << 7))
        assert [(row.n, row.base) for row in report.rows] \
            == [(n, b) for n in range(5, 8) for b in (2, 3, 5)]

    def test_non_coprime_base_becomes_gcd_row(self):
        report = audit_range([5], [641])
        row = report.rows[0]
        assert not row.coprime
        assert row.gcd == 641
        assert report.all_passed  # a factor find is not a rule violation

    def test_prime_case_rows(self):
        report = audit_range(range(2, 5), [3])
        for row in report.rows:
            assert row.verdict.classification is Classification.PRIME
            assert row.verdict.quarter.tag is QuarterTag.OTHER
            assert row.verdict.violations == ()

    def test_bases_past_the_decimal_digit_cap(self):
        # 7^5300 has 14879 bits, more than the 4300 decimal digits an int
        # may be written in; p is a prime factor of F_14, so p * b is a
        # base whose gcd with F_14 is p
        p = 116928085873074369829035993834596371340386703423373313
        b = 7 ** 5300
        with pytest.raises(BaseNotCoprimeError) as info:
            require_coprime(14, p * b)
        assert info.value.gcd == p
        report = audit_range([14], [b, p * b])
        assert report.rows[0].verdict is not None and report.all_passed
        assert (report.rows[1].coprime, report.rows[1].gcd) == (False, p)
        quarter = QuarterClass(QuarterTag.OTHER, FermatResidue(14, 7))
        out = primality._audit_rules(14, b, False, True, quarter)
        assert f"0x{b:x}" in out[0].detail


class TestConstructedPseudoprimeBases:
    """Bases other than 2 to which F_5 and F_6 are pseudoprimes, built
    from one known factor (conftest.pseudoprime_base); every outcome
    below follows from the construction, not from a chain."""

    @pytest.mark.parametrize("n, p, alpha", KNOWN_FACTORS)
    def test_classify(self, n, p, alpha):
        v = classify_report(n, pseudoprime_base(n, p))
        assert v.classification is Classification.PSEUDOPRIME_TO_BASE
        assert v.quarter.tag is QuarterTag.PLUS_ONE
        assert len(v.rules) == 2 and v.violations == ()

    @pytest.mark.parametrize("n, p, alpha", KNOWN_FACTORS)
    def test_audit_row(self, n, p, alpha):
        base = pseudoprime_base(n, p)
        res = run_cli("audit", "--n-range", str(n), "--bases", f"5,{base}")
        assert res.code == 0
        row = res.json()["rows"][1]
        assert int(row["base"], 16) == base
        assert row["classification"] == "pseudoprime-to-base"
        assert row["quarter_tag"] == "plus-one"
        assert row["rules"] and all(r["passed"] for r in row["rules"])


FORK = "fork" in multiprocessing.get_all_start_methods()


def spy_on_chains(monkeypatch, fail_at=None):
    """Record the (n, base) of every chain this process runs; the chain
    of fail_at raises instead."""
    calls = []
    real = primality.chain_taps

    def spy(n, base):
        calls.append((n, base))
        if (n, base) == fail_at:
            raise RuntimeError(f"chain {fail_at} broke")
        return real(n, base)

    monkeypatch.setattr(primality, "chain_taps", spy)
    return calls


def usable_cpus(monkeypatch, count):
    monkeypatch.setattr(primality, "_usable_cpus", lambda: count)


def spy_on_start_methods(monkeypatch):
    """Record the start method of every pool made."""
    methods = []
    real = multiprocessing.get_context

    def spy(method):
        methods.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return methods


class TestAuditPool:
    # 114689 = 7*2^14 + 1 divides F_12, so one gcd row crosses the pool
    GRID = range(10, 13)

    @pytest.mark.parametrize("bases", [[2, 3, 5, 114689], [2, 5, 114689]],
                             ids=["with-base-3", "without-base-3"])
    def test_pool_gives_the_same_report(self, monkeypatch, bases):
        calls = spy_on_chains(monkeypatch)
        usable_cpus(monkeypatch, 1)
        alone = audit_range(self.GRID, bases)
        # one chain per (n, base), and a base-3 chain per n in any case
        assert sorted(calls) == sorted(
            (n, b) for n in self.GRID for b in {*bases, 3})
        calls.clear()
        primality.reset_prime_cache()
        methods = spy_on_start_methods(monkeypatch)
        usable_cpus(monkeypatch, 2)
        pooled = audit_range(self.GRID, bases)
        assert calls == []  # every chain ran in a worker
        assert methods == ["fork" if FORK else "spawn"]
        assert pooled == alone
        assert [(row.n, row.base) for row in pooled.rows] \
            == [(n, b) for n in self.GRID for b in bases]
        assert (pooled.rows[-1].coprime, pooled.rows[-1].gcd) \
            == (False, 114689)
        assert all(primality._PRIME_CACHE[n] is False for n in self.GRID)

    def test_process_with_threads_spawns_its_workers(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        methods = spy_on_start_methods(monkeypatch)
        usable_cpus(monkeypatch, 2)
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            pooled = audit_range(self.GRID, [2, 3, 5, 114689])
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not thread.is_alive()
        assert methods == ["spawn"]
        assert calls == []
        primality.reset_prime_cache()
        usable_cpus(monkeypatch, 1)
        assert audit_range(self.GRID, [2, 3, 5, 114689]) == pooled

    def test_cheap_audit_runs_without_a_pool(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        usable_cpus(monkeypatch, 2)
        audit_range(range(5, 9), default_audit_bases())
        assert len(calls) == 4 * 50

    @pytest.mark.skipif(
        not FORK, reason="the workers see the patched chain only when forked")
    def test_worker_error_reaches_the_caller(self, monkeypatch):
        spy_on_chains(monkeypatch, fail_at=(11, 5))
        usable_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"chain \(11, 5\) broke"):
            audit_range(self.GRID, [2, 3, 5, 114689])
        assert multiprocessing.active_children() == []

    def test_bad_index_is_refused_before_any_chain(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        usable_cpus(monkeypatch, 1)  # so that the spy sees every chain
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "11")
        res = run_cli("audit", "--n-range", "5..12")
        assert res.code == 2
        assert res.stderr == \
            "fermatlab: Fermat index must be in 0..11, got 12\n"
        res = run_cli("audit", "--n-range", "5..6", "--bases", "2,-3")
        assert res.code == 2
        assert res.stderr == "fermatlab: base must be >= 0, got -3\n"
        with pytest.raises(IndexBelowTwoError):
            audit_range([5, 6, 1], [2, 3])
        assert calls == []


class TestClassifyIsAnAuditRow:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_equals_the_audit_row(self, n):
        for base in (2, 3, 5, 7):
            assert classify_report(n, base) \
                == audit_range([n], [base]).rows[0].verdict

    def test_pooled_classify_gives_the_same_verdict(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        usable_cpus(monkeypatch, 2)
        pooled = classify_report(13, 7)
        assert calls == []  # both chains ran in workers
        usable_cpus(monkeypatch, 1)
        assert classify_report(13, 7) == pooled
        assert sorted(calls) == [(13, 3), (13, 7)]

    def test_non_coprime_base_raises_before_any_chain(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        with pytest.raises(BaseNotCoprimeError) as info:
            classify_report(5, 641)
        assert info.value.gcd == 641
        assert calls == []


# Every public way into a chain or the divisor search, with base 5, which
# shares the factor 5 = F_1: n = 1 must fail on the index, not the base.
CHAIN_ENTRIES = {
    "pepin_test": lambda n: pepin_test(n, 5),
    "chain_taps": lambda n: chain_taps(n, 5),
    "quarter_residue": lambda n: quarter_residue(n, 5),
    "fermat_congruence": lambda n: fermat_congruence(n, 5),
    "classify_report": lambda n: classify_report(n, 5),
    "audit_range": lambda n: audit_range([5, n], [2, 5]),
    "lucas_search": lambda n: lucas_search(n, 10),
}


@pytest.mark.parametrize("entry", CHAIN_ENTRIES.values(),
                         ids=CHAIN_ENTRIES.keys())
class TestChainIndexRule:
    @pytest.fixture(autouse=True)
    def no_chain(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("work started before the index check")

        monkeypatch.setattr(primality, "mod_square_chain", refuse)
        monkeypatch.setattr(factors, "divides_fermat", refuse)
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "7")

    def test_below_two(self, entry):
        with pytest.raises(IndexBelowTwoError,
                           match=r"^Fermat index must be >= 2, got 1$"):
            entry(1)

    def test_above_the_cap(self, entry):
        with pytest.raises(IndexOutOfRangeError):
            entry(max_index() + 1)


class TestPrimeCache:
    def test_known_verdicts(self):
        for n, want in [(0, True), (1, True), (2, True), (3, True),
                        (4, True), (5, False), (6, False)]:
            assert fermat_is_prime(n) == want

    def test_classify_seeds_cache(self):
        primality.reset_prime_cache()
        classify_report(5, 3)
        assert primality._PRIME_CACHE[5] is False


class TestBaseSets:
    def test_default_audit_bases(self):
        # the first 50 primes, each certified by trial division
        primes = [m for m in range(2, 230)
                  if oracle.trial_division(m) is None]
        assert len(primes) == 50
        assert default_audit_bases() == primes
