"""Power-of-two multiplicative orders and the composite-case bound."""

import math

import pytest

from fermatlab import oracle, primality
from fermatlab.arith import fermat_value, mod_square_chain, reduce_fold
from fermatlab.errors import BaseNotCoprimeError
from fermatlab.orders import order_alpha


@pytest.fixture(autouse=True)
def fresh_prime_cache():
    primality.reset_prime_cache()
    yield
    primality.reset_prime_cache()


class TestOrderAlpha:
    def test_base_two_on_f5(self):
        r = order_alpha(5, 2)
        assert r.alpha == 6
        assert r.order == 64
        assert not r.not_totally_even
        assert r.bound_satisfied is True  # 6 <= 30, F_5 composite
        assert r.squarings_used == 6

    def test_identity_element(self):
        r = order_alpha(2, 1)
        assert r.alpha == 0
        assert r.order == 1

    def test_base_three_on_f5_has_odd_order_part(self):
        r = order_alpha(5, 3)
        assert r.alpha is None
        assert r.not_totally_even
        assert r.order is None
        assert r.bound_satisfied is None
        assert r.squarings_used == 32
        # the marker must agree with the failed Fermat congruence
        assert primality.fermat_congruence(5, 3) is False

    def test_generator_mod_f2(self):
        r = order_alpha(2, 3)
        assert r.alpha == 4
        assert r.order == oracle.naive_order(3, 17)
        # prime modulus: the composite-case bound does not apply
        assert r.bound_satisfied is None

    def test_non_coprime(self):
        with pytest.raises(BaseNotCoprimeError):
            order_alpha(5, 641)

    def test_agrees_with_naive_order_small_indices(self):
        for n in range(0, 5):
            m = fermat_value(n)
            for base in range(1, 50):
                if base % m == 0:
                    continue
                got = order_alpha(n, base)
                want = oracle.naive_order(base, m)
                assert got.order == want, (n, base)

    def test_minimality_witness(self):
        for n in range(2, 5):
            for base in range(2, 30):
                if math.gcd(base, fermat_value(n)) != 1:
                    continue
                r = order_alpha(n, base)
                assert r.alpha is not None  # prime modulus: group is 2-power
                if r.alpha > 0:
                    below = mod_square_chain(reduce_fold(base, n),
                                             r.alpha - 1)
                    assert not below.is_one

    def test_order_of_two_is_forced(self):
        # 2^(2^n) = -1 makes ord(2) exactly 2^(n+1)
        for n in range(1, 13):
            r = order_alpha(n, 2)
            assert r.alpha == n + 1
            if n >= 5:
                assert r.bound_satisfied is True

    def test_bound_reported_for_composite_congruent_bases(self):
        report = []
        for base in (2, 4, 16):
            r = order_alpha(5, base)
            assert r.bound_satisfied is True
            report.append(r.alpha)
        assert all(a <= 30 for a in report)


class TestNoConversionPerStep:
    def test_fft_order_reads_one_int(self, monkeypatch):
        # the chain tests each step for 1 on the digits; only the final
        # residue is converted to an int
        pytest.importorskip("numpy")
        from fermatlab import _fft

        calls = [0]
        real = _fft.to_int

        def counting(digits, plan):
            calls[0] += 1
            return real(digits, plan)

        monkeypatch.setattr(_fft, "to_int", counting)
        r = order_alpha(14, 5)
        assert r.alpha is None and r.squarings_used == 1 << 14
        assert calls[0] <= 1
