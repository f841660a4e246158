"""Power-of-two multiplicative orders and the composite-case bound."""

import math

import pytest

from conftest import KNOWN_FACTORS, pseudoprime_base

from fermatlab import oracle, orders, primality
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

    @pytest.mark.parametrize("n, p, alpha", KNOWN_FACTORS)
    def test_constructed_pseudoprime_base(self, n, p, alpha):
        # the order is 2^v2(p - 1) by construction, not 2^(n + 1) as for 2
        r = order_alpha(n, pseudoprime_base(n, p))
        assert (r.alpha, r.squarings_used) == (alpha, alpha)
        assert r.bound_satisfied is True

    def test_bound_reported_for_composite_congruent_bases(self):
        report = []
        for base in (2, 4, 16):
            r = order_alpha(5, base)
            assert r.bound_satisfied is True
            report.append(r.alpha)
        assert all(a <= 30 for a in report)


@pytest.fixture(scope="module")
def naive_orders():
    return {(n, base): oracle.naive_order(base, fermat_value(n))
            for n in range(2, 5) for base in range(200)
            if math.gcd(base, fermat_value(n)) == 1}


def spy_on_squarings(monkeypatch):
    """The count of every chain call order_alpha makes."""
    counts = []
    real = orders.mod_square_chain

    def counting(a, count, observer=None):
        counts.append(count)
        return real(a, count, observer)

    monkeypatch.setattr(orders, "mod_square_chain", counting)
    return counts


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3, 4, orders._BLOCK])
    def test_agrees_with_naive_order(self, monkeypatch, naive_orders,
                                     block):
        # 3 leaves a short last block at every n; 4 makes the last entry
        # of F_2's chain a block end
        monkeypatch.setattr(orders, "_BLOCK", block)
        for (n, base), want in naive_orders.items():
            assert order_alpha(n, base).order == want, (n, base, block)

    @pytest.mark.parametrize("block", [1, 3, orders._BLOCK])
    def test_found_alpha_costs_at_most_one_block_more(self, monkeypatch,
                                                      block):
        monkeypatch.setattr(orders, "_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        for n, base in [(2, 1), (5, 2), (6, pseudoprime_base(6, 274177)),
                        (12, 2)]:
            counts.clear()
            r = order_alpha(n, base)
            assert r.alpha is not None and r.squarings_used == r.alpha
            assert r.alpha <= sum(counts) <= r.alpha + block

    def test_not_totally_even_squares_the_whole_chain(self, monkeypatch):
        counts = spy_on_squarings(monkeypatch)
        r = order_alpha(10, 3)
        assert r.alpha is None and r.squarings_used == 1 << 10
        assert sum(counts) == 1 << 10
        assert max(counts) == orders._BLOCK


class TestNoConversionPerStep:
    def test_fft_order_reads_one_int_per_block(self, monkeypatch):
        # the chain is tested for 1 only at the end of each block, so only
        # those residues are converted to an int
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
        assert calls[0] <= (1 << 14) // orders._BLOCK + 1
