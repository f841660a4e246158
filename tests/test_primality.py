"""Half-residue test, quarter classification, congruence and verdicts."""

from math import gcd
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import FULL_CRT_ALPHAS, KNOWN_FACTORS, audit_violations, \
    complete_factorisation, full_crt_base, pseudoprime_base, run_cli, \
    spy_on_squarings, v2

from fermatlab import arith, factors, oracle, primality, records
from fermatlab.arith import FermatResidue, fermat_value, max_index, \
    reduce_fold
from fermatlab.checkpoint import CheckpointWriter
from fermatlab.errors import (
    BaseNotCoprimeError,
    IndexBelowTwoError,
    IndexOutOfRangeError,
    NonAdmissibleBaseError,
)
from fermatlab.factors import lucas_search
from fermatlab.primality import (
    AuditReport,
    AuditRow,
    ChainTaps,
    Classification,
    QuarterTag,
    Verdict,
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


pytestmark = pytest.mark.usefixtures("fresh_prime_cache")


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

    @pytest.mark.parametrize("multiple", [0, 1, 7])
    def test_base_that_is_a_multiple_of_f_n(self, multiple):
        # the gcd is F_n itself, which the message leaves out
        m = fermat_value(12)
        with pytest.raises(BaseNotCoprimeError) as info:
            require_coprime(12, multiple * m)
        assert info.value.gcd == m
        assert str(info.value) == "base is a multiple of F_12"

    def test_non_admissible_base_past_the_decimal_digit_cap(self):
        # 7^5300 has more than the 4300 decimal digits an int may be
        # written in, so the message names it in hex
        b = 7 ** 5300
        with pytest.raises(NonAdmissibleBaseError, match=f"0x{b:x}"):
            pepin_test(14, b)


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
    def _rules(self, n, base, pepin_prime, congruence, tag):
        """The rules of a verdict planted with a quarter residue of tag
        and a full residue that is 1 exactly when congruence holds."""
        quarter = {QuarterTag.PLUS_ONE: 1,
                   QuarterTag.MINUS_ONE: 1 << (1 << n),
                   QuarterTag.OTHER: 7}[tag]
        taps = ChainTaps(quarter=FermatResidue(n, quarter),
                         half=FermatResidue(n, 5),
                         full=FermatResidue(n, 1 if congruence else 7))
        return Verdict(n, base, pepin_prime, taps).rules

    def test_below_threshold_has_no_rules(self):
        out = self._rules(4, 3, False, True, QuarterTag.OTHER)
        assert out == ()

    def test_pseudoprime_requires_quarter_one(self):
        out = self._rules(5, 7, False, True, QuarterTag.OTHER)
        assert failed(out) == ["pseudoprime-quarter-one"]
        # only a failed rule says why
        assert [r.detail is None for r in out] == [False, True]

    def test_quarter_minus_one_requires_prime(self):
        out = self._rules(5, 7, False, False, QuarterTag.MINUS_ONE)
        assert failed(out) == ["quarter-minus-one-implies-prime"]

    def test_base3_never_minus_one(self):
        # both sides of the iff are false here, so only two rules fire
        out = self._rules(5, 3, False, False, QuarterTag.MINUS_ONE)
        assert set(failed(out)) == {
            "base3-quarter-not-minus-one",
            "quarter-minus-one-implies-prime",
        }

    def test_base3_iff_violated_by_quarter_one_without_pseudoprime(self):
        out = self._rules(5, 3, False, False, QuarterTag.PLUS_ONE)
        assert failed(out) == ["base3-pseudoprime-iff-quarter-one"]

    def test_base3_iff_violated_by_pseudoprime_without_quarter_one(self):
        out = self._rules(5, 3, False, True, QuarterTag.OTHER)
        assert set(failed(out)) == {
            "pseudoprime-quarter-one",
            "base3-pseudoprime-iff-quarter-one",
        }

    def test_consistent_inputs_pass(self):
        out = self._rules(5, 2, False, True, QuarterTag.PLUS_ONE)
        assert failed(out) == []

    def test_applicable_rule_lists(self):
        both = ["pseudoprime-quarter-one", "quarter-minus-one-implies-prime"]
        assert [r.rule for r in self._rules(
            5, 2, False, False, QuarterTag.OTHER)] == both
        assert [r.rule for r in self._rules(
            5, 3, False, False, QuarterTag.OTHER)] == both + [
                "base3-quarter-not-minus-one",
                "base3-pseudoprime-iff-quarter-one"]


class TestRealAudits:
    def test_no_violations_on_small_range(self):
        report = audit_range(range(5, 8), [2, 3, 5])
        assert not audit_violations(report)
        assert len(report.rows) == 9

    def test_bases_may_be_an_iterator(self):
        # read once into a list: checking them must not use them up
        assert audit_range(range(5, 7), iter([2, 3, 5])) \
            == audit_range(range(5, 7), [2, 3, 5])

    def test_one_chain_per_row(self, monkeypatch):
        # with no known factor, none refutes a row and each coprime row
        # runs its chain; the base-3 row decides primality for the other
        # bases of its n, so no row pays for a second chain
        # (bases whose chains never reach 1, after which they would
        # square no further)
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
        counts = spy_on_squarings(monkeypatch)
        report = audit_range(range(5, 8), [3, 5, 7])
        assert sum(counts) == 3 * ((1 << 5) + (1 << 6) + (1 << 7))
        assert [(row.n, row.base) for row in report.rows] \
            == [(n, b) for n in range(5, 8) for b in (3, 5, 7)]

    def test_non_coprime_base_becomes_gcd_row(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        report = audit_range([5], [641])
        # the gcd is taken without a chain, and 641 proves F_5 composite
        assert calls == []
        row = report.rows[0]
        assert not row.coprime
        assert row.gcd == 641
        # a factor find is not a rule violation
        assert not audit_violations(report)

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
        assert report.rows[0].verdict is not None
        assert not audit_violations(report)
        assert (report.rows[1].coprime, report.rows[1].gcd) == (False, p)
        taps = ChainTaps(quarter=FermatResidue(14, 7),
                         half=FermatResidue(14, 5), full=FermatResidue(14, 1))
        out = Verdict(14, b, False, taps).rules
        assert f"0x{b:x}" in out[0].detail


class TestConstructedPseudoprimeBases:
    """Bases other than 2 to which F_5, F_6, F_12 and F_14 are
    pseudoprimes, built from one known factor (conftest.pseudoprime_base);
    every outcome below follows from the construction, not from a chain."""

    @pytest.mark.parametrize("n, p, alpha", KNOWN_FACTORS)
    def test_classify(self, n, p, alpha):
        v = classify_report(n, pseudoprime_base(n, p))
        assert v.classification is Classification.PSEUDOPRIME_TO_BASE
        assert v.quarter.tag is QuarterTag.PLUS_ONE
        assert len(v.rules) == 2 and v.violations == ()

    @pytest.mark.parametrize("n, p, alpha", KNOWN_FACTORS)
    def test_audit_row(self, n, p, alpha):
        base = pseudoprime_base(n, p)
        # in hex: at n = 14 the base has more than 4300 decimal digits
        res = run_cli("audit", "--n-range", str(n), "--bases",
                      f"5,0x{base:x}")
        assert res.code == 0
        row = res.json()["rows"][1]
        assert int(row["base"], 16) == base
        assert row["classification"] == "pseudoprime-to-base"
        assert row["quarter_tag"] == "plus-one"
        assert row["rules"] and all(r["passed"] for r in row["rules"])


class TestFullCrtPseudoprimeBases:
    """Bases to which F_5..F_11 are pseudoprimes, built from the complete
    factorisation of F_n (conftest.full_crt_base), so that the order of
    the base is as large as a 2-power order can be; checked through the
    CLI."""

    @pytest.mark.parametrize("n", sorted(FULL_CRT_ALPHAS))
    def test_order(self, n):
        assert FULL_CRT_ALPHAS[n] \
            == max(v2(p - 1) for p in complete_factorisation(n))
        res = run_cli("order", str(n), "--base", str(full_crt_base(n)))
        assert res.code == 0
        doc = res.json()
        assert doc["alpha"] == FULL_CRT_ALPHAS[n]
        assert doc["bound_satisfied"] is True

    @pytest.mark.parametrize("n", sorted(FULL_CRT_ALPHAS))
    def test_classify_and_audit_row(self, n):
        base = full_crt_base(n)
        res = run_cli("classify", str(n), "--base", str(base))
        assert res.code == 0
        verdict = res.json()
        assert verdict["classification"] == "pseudoprime-to-base"
        assert verdict["quarter"]["tag"] == "plus-one"
        assert verdict["audit_rules"] \
            and all(r["passed"] for r in verdict["audit_rules"])
        res = run_cli("audit", "--n-range", str(n), "--bases", str(base))
        assert res.code == 0
        [row] = res.json()["rows"]
        assert row["base"] == verdict["base"]
        assert (row["quarter_tag"], row["fermat_congruence_holds"],
                row["pepin_prime"], row["classification"], row["rules"]) \
            == (verdict["quarter"]["tag"],
                verdict["fermat_congruence_holds"], verdict["pepin_prime"],
                verdict["classification"], verdict["audit_rules"])


def spy_on_chains(monkeypatch, fail_at=None):
    """Record the (n, base) of every chain run, alone or in a batch; a
    batch with the chain of fail_at raises instead."""
    calls = []
    real = primality._batch_taps

    def spy(n, bases):
        chains = [(n, base) for base in bases]
        calls.extend(chains)
        if fail_at in chains:
            raise RuntimeError(f"chain {fail_at} broke")
        return real(n, bases)

    monkeypatch.setattr(primality, "_batch_taps", spy)
    return calls


class TestAuditChains:
    # 114689 = 7*2^14 + 1 divides F_12, so one row there is a gcd row
    GRID = range(10, 13)

    @pytest.fixture(autouse=True)
    def no_known_factor(self, monkeypatch):
        # so that no factor refutes a row, and each coprime row runs its
        # chain; primality then comes from a base-3 chain at every n
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})

    def test_each_index_squares_its_chains_as_one_batch(
            self, monkeypatch, fresh_prime_cache):
        # in index order, whatever the backend: one chain per coprime
        # (n, base), the gcd pair none, and the base-3 chain for
        # primality last, though 3 is not a base and gives no row
        batches = []
        real = primality._batch_taps

        def spy(n, bases):
            batches.append((n, tuple(bases)))
            return real(n, bases)

        monkeypatch.setattr(primality, "_batch_taps", spy)
        bases = [2, 5, 7, 114689]
        report = audit_range(self.GRID, bases)
        assert batches == [(10, (2, 5, 7, 114689, 3)),
                           (11, (2, 5, 7, 114689, 3)), (12, (2, 5, 7, 3))]
        assert [(row.n, row.base) for row in report.rows] \
            == [(n, b) for n in self.GRID for b in bases]
        assert (report.rows[-1].coprime, report.rows[-1].gcd) \
            == (False, 114689)
        assert all(primality._PRIME_CACHE[n] is False for n in self.GRID)

    def test_chain_error_reaches_the_caller(self, monkeypatch):
        spy_on_chains(monkeypatch, fail_at=(11, 5))
        with pytest.raises(RuntimeError, match=r"chain \(11, 5\) broke"):
            audit_range(self.GRID, [2, 3, 5, 114689])

    def test_bad_index_is_refused_before_any_chain(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
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


def row_fields(verdict: Verdict) -> list:
    """What an audit record shows of a row's verdict."""
    return [verdict.quarter_tag, verdict.fermat_congruence_holds,
            verdict.pepin_prime, verdict.classification, verdict.rules]


class TestClassifyIsAnAuditRow:
    @pytest.mark.parametrize("n", range(5, 9))
    def test_equals_the_audit_row(self, n):
        # known factors decide the rows of 3, 5 and 7 with no chain;
        # classify runs it for the residues its record shows
        m = fermat_value(n)
        for base in (2, 3, 5, 7):
            verdict = classify_report(n, base)
            row = audit_range([n], [base]).rows[0].verdict
            assert (row.taps is None) is (base != 2)
            assert row_fields(row) == row_fields(verdict)
            quarter = pow(base, (m - 1) // 4, m)
            assert [tap.value for tap in verdict.taps] \
                == [quarter, quarter ** 2 % m, quarter ** 4 % m]
            assert verdict.quarter_tag is verdict.quarter.tag

    def test_known_factor_leaves_one_chain(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        verdict = classify_report(13, 7)
        assert calls == [(13, 7)]
        # with no known factor, primality takes a base-3 chain, as at
        # n = 20, squared in one batch with the base's own
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
        calls.clear()
        assert classify_report(13, 7) == verdict
        assert calls == [(13, 7), (13, 3)]

    def test_non_coprime_base_raises_before_any_chain(self, monkeypatch):
        calls = spy_on_chains(monkeypatch)
        with pytest.raises(BaseNotCoprimeError) as info:
            classify_report(5, 641)
        assert info.value.gcd == 641
        assert calls == []


def oracle_rows(n: int, bases) -> list:
    """The audit record rows of coprime bases at a composite F_n, read
    from quarter and full residues that oracle.naive_pow gives."""
    m = fermat_value(n)
    rows = []
    for base in bases:
        quarter = oracle.naive_pow(base, (m - 1) // 4, m)
        taps = ChainTaps(*(FermatResidue(n, oracle.naive_pow(quarter, e, m))
                           for e in (1, 2, 4)))
        rows.append(AuditRow(n, base, verdict=Verdict(n, base, False, taps)))
    return records.audit_record(AuditReport(tuple(rows)), [n],
                                list(bases))["rows"]


class TestKnownFactorRefutation:
    """A row whose congruence a known factor of F_n refutes is decided
    with no chain; every other row still runs its chain."""

    def test_default_audit_rows_match_the_oracle(self):
        # n = 13 is left out: one naive_pow there takes over a second
        bases = default_audit_bases()
        report = audit_range(range(5, 13), bases)
        assert records.audit_record(report, [5, 12], bases)["rows"] \
            == [row for n in range(5, 13) for row in oracle_rows(n, bases)]

    @settings(max_examples=60)
    @given(st.data())
    def test_drawn_rows_match_the_oracle(self, data):
        n = data.draw(st.integers(min_value=5, max_value=11))
        m = fermat_value(n)
        base = data.draw(st.one_of(st.integers(min_value=2, max_value=300),
                                   st.integers(min_value=2, max_value=m - 2)))
        assume(gcd(base, m) == 1)
        report = audit_range([n], [base])
        assert records.audit_record(report, [n], [base])["rows"] \
            == oracle_rows(n, [base])

    @pytest.mark.parametrize("n, base", [
        (12, 2), (12, pseudoprime_base(12, 114689)), (9, full_crt_base(9))],
        ids=["base-2", "pseudoprime-base", "full-crt-base"])
    def test_unrefuted_row_runs_its_chain(self, monkeypatch, n, base):
        calls = spy_on_chains(monkeypatch)
        [row] = audit_range([n], [base]).rows
        assert calls == [(n, base)]
        assert row.verdict.taps.quarter.is_one
        assert (row.verdict.quarter_tag, row.verdict.classification) \
            == (QuarterTag.PLUS_ONE, Classification.PSEUDOPRIME_TO_BASE)
        assert row.verdict.rules and row.verdict.violations == ()

    def test_default_audit_squares_only_base_two(self, monkeypatch):
        # 2^(2^(n+1)) = 1 mod F_n, so no factor refutes base 2; every
        # other default base is refuted at n = 5..12, and the known
        # factors decide primality, so no base-3 chain runs either.
        # Base 2's chain is 1 by index n + 1, within its first call, so
        # it squares that call alone: up to the quarter tap, 2^n - 2,
        # or the first block end
        calls = spy_on_chains(monkeypatch)
        counts = spy_on_squarings(monkeypatch)
        assert run_cli("audit", "--n-range", "5..12").code == 0
        assert sorted(calls) == [(n, 2) for n in range(5, 13)]
        assert sorted(counts) == sorted(
            min((1 << n) - 2, arith.CHAIN_BLOCK) for n in range(5, 13))

    def test_known_factor_spares_the_primality_chain(self, monkeypatch):
        # 3 is not a base, and 5 and 7 are refuted at n = 10..12
        calls = spy_on_chains(monkeypatch)
        report = audit_range(range(10, 13), [2, 5, 7, 114689])
        assert sorted(calls) == [(n, 2) for n in range(10, 13)]
        assert not audit_violations(report)

    def test_large_indices_square_nothing(self, monkeypatch):
        # a chain of 2^21 to 2^23 squarings would take hours
        counts = spy_on_squarings(monkeypatch)
        report = audit_range([21, 22, 23], [3, 7, 11])
        assert counts == []
        for row in report.rows:
            assert row.coprime and row.verdict.taps is None
            assert (row.verdict.quarter_tag, row.verdict.classification,
                    row.verdict.pepin_prime) == (
                QuarterTag.OTHER, Classification.COMPOSITE_NON_PSEUDOPRIME,
                False)
            assert len(row.verdict.rules) == (4 if row.base == 3 else 2)
        assert not audit_violations(report)

    def test_grid_constants_are_computed_once_per_index(self, monkeypatch):
        # F_n once per n, and 2^(2^n) mod p - 1 once per known factor p
        # of F_n, however many bases the grid has
        values, powers = [], []
        real = primality.fermat_value
        monkeypatch.setattr(primality, "fermat_value",
                            lambda n: values.append(n) or real(n))

        def spy(base, exponent, modulus):
            if base == 2 and modulus % 2 == 0:  # not divides_fermat's
                powers.append((exponent, modulus))
            return pow(base, exponent, modulus)

        monkeypatch.setattr(factors, "pow", spy, raising=False)
        audit_range([21, 22, 23, 21], [3, 7, 11])
        assert sorted(values) == [21, 22, 23]
        assert sorted(powers) == sorted((1 << n, p - 1) for n in (21, 22, 23)
                                        for p in factors.KNOWN_FACTORS[n])


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
    # relative to the test's own empty directory (the fixture's chdir)
    "CheckpointWriter": lambda n: CheckpointWriter(n, 5, Path("ck")),
}


@pytest.mark.parametrize("entry", CHAIN_ENTRIES.values(),
                         ids=CHAIN_ENTRIES.keys())
class TestChainIndexRule:
    @pytest.fixture(autouse=True)
    def no_chain(self, monkeypatch, tmp_path):
        monkeypatch.chdir(tmp_path)

        def refuse(*args, **kwargs):
            raise AssertionError("work started before the index check")

        monkeypatch.setattr(arith, "mod_square_chain", refuse)
        monkeypatch.setattr(arith, "mod_square_chains", refuse)
        monkeypatch.setattr(factors, "divides_fermat", refuse)
        monkeypatch.setenv("FERMAT_LAB_MAX_N", "7")

    def test_below_two(self, entry, tmp_path):
        with pytest.raises(IndexBelowTwoError,
                           match=r"^Fermat index must be >= 2, got 1$"):
            entry(1)
        assert list(tmp_path.iterdir()) == []

    def test_above_the_cap(self, entry, tmp_path):
        with pytest.raises(IndexOutOfRangeError):
            entry(max_index() + 1)
        assert list(tmp_path.iterdir()) == []


class TestPrimeCache:
    def test_known_verdicts(self):
        for n, want in [(0, True), (1, True), (2, True), (3, True),
                        (4, True), (5, False), (6, False)]:
            assert fermat_is_prime(n) == want

    def test_classify_seeds_cache(self):
        classify_report(5, 3)
        assert primality._PRIME_CACHE[5] is False

    @pytest.mark.parametrize("n", [n for n in factors.KNOWN_FACTORS
                                   if n <= 16])
    def test_known_factor_agrees_with_the_chain(self, monkeypatch, n):
        counts = spy_on_squarings(monkeypatch)
        assert fermat_is_prime(n) is False
        assert counts == []
        prime, _ = pepin_test(n, 3)
        assert prime is False


class TestBaseSets:
    def test_default_audit_bases(self):
        # the first 50 primes, each certified by trial division
        primes = [m for m in range(2, 230)
                  if oracle.trial_division(m) is None]
        assert len(primes) == 50
        assert default_audit_bases() == primes
