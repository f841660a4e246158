"""Divisor search in the k*2^(n+2)+1 family and form validation."""

import importlib.util
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from fermatlab import factors, oracle
from fermatlab.arith import fermat_value
from fermatlab.errors import IndexBelowTwoError, IndexOutOfRangeError, \
    NotADivisorError
from fermatlab.factors import (
    KNOWN_FACTORS,
    CandidateDivisor,
    cofactor,
    divides_fermat,
    lucas_search,
    validate_divisor_form,
)
from fermatlab.oracle import is_probable_prime, naive_mod, trial_division
from fermatlab.records import factor_record


BENCHMARK_FACTORS = Path(__file__).resolve().parents[1] \
    / "clibench" / "known_factors.py"


class TestKnownFactorTable:
    def test_covers_every_index_with_a_published_factor(self):
        assert sorted(KNOWN_FACTORS) \
            == [n for n in range(5, 24) if n != 20]

    @pytest.mark.parametrize("n", sorted(KNOWN_FACTORS))
    def test_entry_is_a_prime_divisor_of_the_right_form(self, n):
        assert list(KNOWN_FACTORS[n]) == sorted(set(KNOWN_FACTORS[n]))
        for p in KNOWN_FACTORS[n]:
            assert divides_fermat(p, n)
            assert (p - 1) % (1 << (n + 2)) == 0
            assert is_probable_prime(p)

    def test_same_as_the_benchmark_table(self):
        # the benchmark checks output against its own copy, loaded by
        # path since clibench is no package; the two must not drift
        spec = importlib.util.spec_from_file_location(
            "benchmark_known_factors", BENCHMARK_FACTORS)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        assert {n: tuple(ps) for n, ps in module.KNOWN_FACTORS.items()} \
            == KNOWN_FACTORS


class TestDividesFermat:
    def test_known_divisor(self):
        assert divides_fermat(641, 5) is True

    def test_small_non_divisors(self):
        assert divides_fermat(3, 5) is False
        # distinct indices give coprime values, so one never divides another
        assert divides_fermat(257, 5) is False

    def test_rejections(self):
        with pytest.raises(ValueError):
            divides_fermat(2, 5)
        with pytest.raises(ValueError):
            divides_fermat(1, 5)
        with pytest.raises(ValueError):
            divides_fermat(-7, 5)
        with pytest.raises(IndexOutOfRangeError):
            divides_fermat(641, -1)

    @pytest.mark.parametrize("k, shift, n", [(5, 39, 36), (3, 41, 38),
                                             (5, 75, 73)])
    def test_divisors_beyond_the_index_cap(self, k, shift, n):
        # n squarings mod p: no F_n is built, so the cap does not apply
        assert divides_fermat(k * (1 << shift) + 1, n) is True
        assert divides_fermat(k * (1 << shift) + 1, n + 1) is False

    @given(st.integers(min_value=1, max_value=1 << 20),
           st.integers(min_value=0, max_value=8))
    def test_agrees_with_division(self, half, n):
        p = 2 * half + 1
        assert divides_fermat(p, n) == (naive_mod(fermat_value(n), p) == 0)


class TestLucasSearch:
    def test_f5_fixture(self):
        found = lucas_search(5, 10)
        assert [(d.k, d.p) for d in found] == [(5, 641)]
        d = found[0]
        assert divides_fermat(d.p, 5) and d.prime is True
        assert not d.k_is_one_or_power_of_two

    def test_f6_fixture(self):
        found = lucas_search(6, 1100)
        assert [(d.k, d.p) for d in found] == [(1071, 274177)]

    def test_prime_indices_have_no_proper_divisors(self):
        # k < 2^(16 - 6) = 1024 whatever k_max says
        assert lucas_search(4, 10 ** 12) == []
        assert lucas_search(3, 1000) == []
        assert lucas_search(2, 1000) == []

    def test_trivial_self_divisor_is_skipped(self):
        # k = 8 gives p = 257 = F_3 itself; a self-divisor is not a find
        assert lucas_search(3, 8) == []

    def test_prime_filter_keeps_prime_finds(self):
        assert [(d.k, d.p) for d in lucas_search(5, 10, prime_filter=True)] \
            == [(5, 641)]

    def test_found_divisors_are_one_mod_2_to_n_plus_2(self):
        for n, k_max in [(5, 10), (6, 1100)]:
            for d in lucas_search(n, k_max):
                assert d.p % (1 << (n + 2)) == 1

    def test_preconditions(self):
        with pytest.raises(IndexBelowTwoError):
            lucas_search(1, 10)
        with pytest.raises(ValueError):
            lucas_search(5, 0)


def plain_scan(n, k_max, prime_filter):
    """Every k in turn, filtered before the divisibility test."""
    found, limit = [], fermat_value(n)
    for k in range(1, k_max + 1):
        p = (k << (n + 2)) + 1
        if p >= limit:
            break
        if prime_filter and p < 1 << 64 and not is_probable_prime(p):
            continue
        if pow(2, 1 << n, p) == p - 1:
            found.append((k, p, is_probable_prime(p) if p < 1 << 64
                          else None))
    return found


class TestSieve:
    @given(st.integers(min_value=2, max_value=16),
           st.integers(min_value=1, max_value=5000), st.booleans())
    def test_matches_plain_scan(self, n, k_max, prime_filter):
        got = [(d.k, d.p, d.prime)
               for d in lucas_search(n, k_max, prime_filter)]
        assert got == plain_scan(n, k_max, prime_filter)

    @pytest.mark.parametrize("segment", [1, 7, 97])
    def test_segment_boundaries(self, monkeypatch, segment):
        monkeypatch.setattr(factors, "_SIEVE_SEGMENT", segment)
        for n, k_max in [(5, 300), (6, 1100), (9, 1200), (12, 4000)]:
            got = [(d.k, d.p, d.prime) for d in lucas_search(n, k_max)]
            assert got == plain_scan(n, k_max, False)

    def test_f12_prime_divisors(self):
        assert [d.k for d in lucas_search(12, 20000, True)] \
            == [7, 1588, 3892]

    def test_composite_divisors_are_never_struck(self):
        # products of two of the prime divisors of F_12 at k = 7, 1588
        # and 3892 divide F_12 too, at k from 1.8e8 up: too far to scan
        n = 12
        roots = factors._sieve_roots(n)
        primes = [114689, 26017793, 63766529]
        for i, a in enumerate(primes):
            for b in primes[i + 1:]:
                assert divides_fermat(a * b, n)
                k = (a * b) >> (n + 2)
                assert (k << (n + 2)) + 1 == a * b
                assert factors._strike(roots, k, 1) == b"\x01"
                assert factors._strike(roots, k - 100, 201)[100] == 1

    @pytest.mark.parametrize("n", [2, 3, 5, 9, 12])
    @pytest.mark.parametrize("k_lo", [1, 65537])
    def test_struck_exactly_when_a_small_prime_divides(self, n, k_lo):
        bound = min(1 << (n + 2), factors._SIEVE_BOUND)
        size = 3000
        flags = factors._strike(factors._sieve_roots(n), k_lo, size)
        for k, survives in enumerate(flags, start=k_lo):
            p = (k << (n + 2)) + 1
            small = trial_division(p, bound)
            assert survives == (small is None), (k, p, small)
            if not survives:
                assert small <= 1 << (n + 2) and small < p

    def test_one_divisibility_test_per_survivor(self, monkeypatch):
        calls = []

        def spy(p, n):
            calls.append(p)
            return divides_fermat(p, n)
        monkeypatch.setattr(factors, "divides_fermat", spy)
        assert [d.k for d in lucas_search(9, 40000)] == [1184]
        # an unsieved scan makes 40000 calls
        assert len(calls) <= 40000 // 4

    def test_primality_tested_on_divisors_only(self, monkeypatch):
        calls = []

        def spy(p):
            calls.append(p)
            return is_probable_prime(p)
        monkeypatch.setattr(oracle, "is_probable_prime", spy)
        found = lucas_search(12, 20000, True)
        assert calls == [d.p for d in found]

    def test_prime_filter_drops_divisors_called_composite(self, monkeypatch):
        # composite divisors of F_n lie far beyond a testable k range,
        # so one prime divisor of F_12 is called composite instead
        monkeypatch.setattr(oracle, "is_probable_prime",
                            lambda p: p != 26017793)
        assert [d.k for d in lucas_search(12, 20000, True)] == [7, 3892]
        assert [(d.k, d.prime) for d in lucas_search(12, 20000)] \
            == [(7, True), (1588, False), (3892, True)]

    def test_memory_does_not_grow_with_k_max(self):
        lucas_search(9, 10)  # the prime table is built once, on first use

        def peak(k_max):
            tracemalloc.start()
            try:
                lucas_search(9, k_max)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(10 ** 6) <= 2 * peak(10 ** 5)


class TestCandidateDivisor:
    def test_derived_fields(self):
        d = CandidateDivisor(5, 5)
        assert d.p == 641
        assert not d.k_is_one_or_power_of_two
        assert CandidateDivisor(5, 4).k_is_one_or_power_of_two
        assert CandidateDivisor(5, 1).k_is_one_or_power_of_two

    def test_shape_enforced(self):
        with pytest.raises(ValueError):
            CandidateDivisor(5, 0)


class TestValidation:
    def test_genuine_divisors_validate(self):
        d5 = lucas_search(5, 10)[0]
        assert validate_divisor_form(d5) is True
        d6 = lucas_search(6, 1100)[0]
        assert validate_divisor_form(d6) is True  # 1071 = 3^2 * 7 * 17

    def test_synthetic_power_of_two_k_fails(self):
        # F_3 = 257 = 8 * 2^5 + 1 and F_2 = 17 = 1 * 2^4 + 1 divide
        # themselves, with k a power of two and k = 1
        assert validate_divisor_form(CandidateDivisor(3, 8)) is False
        assert validate_divisor_form(CandidateDivisor(2, 1)) is False

    @pytest.mark.parametrize("n, k", [(23, 5), (36, 10), (38, 6), (73, 5)])
    def test_divisors_beyond_the_index_cap(self, n, k):
        # 5*2^25+1 | F_23, 5*2^39+1 | F_36, 3*2^41+1 | F_38, 5*2^75+1 | F_73
        assert validate_divisor_form(CandidateDivisor(n, k)) is True

    def test_requires_a_divisor(self):
        d = CandidateDivisor(5, 3)
        with pytest.raises(NotADivisorError):
            validate_divisor_form(d)
        with pytest.raises(NotADivisorError):
            cofactor(d)
        with pytest.raises(NotADivisorError):
            validate_divisor_form(CandidateDivisor(36, 11))

    def test_form_violations_only_count_primes(self):
        genuine = lucas_search(5, 10)
        assert factor_record(5, 10, False, genuine)["violations"] == []
        # 257 = 8 * 2^5 + 1 is F_3 itself: an exact divisor whose k is a
        # power of two, which the record must flag only when called prime
        self_divisor = CandidateDivisor(3, 8)
        fake_prime = self_divisor._replace(prime=True)
        doc = factor_record(3, 8, False, [fake_prime])
        assert [v["k"] for v in doc["violations"]] == [8]
        assert doc["found"][0]["divisor_form_valid"] is False
        fake_composite = self_divisor._replace(prime=False)
        doc = factor_record(3, 8, False, [fake_composite])
        assert doc["violations"] == []


class TestCofactor:
    def test_exact_factorization_of_f5(self):
        d = lucas_search(5, 10)[0]
        cof = cofactor(d)
        assert cof == 6700417
        assert d.p * cof == fermat_value(5)

    def test_f6(self):
        d = lucas_search(6, 1100)[0]
        assert d.p * cofactor(d) == fermat_value(6)

    def test_bogus_divisor_caught(self):
        with pytest.raises(NotADivisorError):
            cofactor(CandidateDivisor(5, 3))
