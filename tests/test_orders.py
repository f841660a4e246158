"""Power-of-two multiplicative orders and the composite-case bound."""

import math
from itertools import accumulate

import pytest

from conftest import KNOWN_FACTORS, pseudoprime_base, spy_on_squarings

from fermatlab import arith, factors, oracle, primality
from fermatlab.arith import CHAIN_BLOCK, fermat_value, mod_square_chain, \
    reduce_fold
from fermatlab.checkpoint import ChainPaused, Checkpoint, \
    CheckpointWriter, load_matching, save_checkpoint
from fermatlab.errors import BaseNotCoprimeError
from fermatlab.orders import order_alpha
from fermatlab.primality import default_audit_bases


pytestmark = pytest.mark.usefixtures("fresh_prime_cache")


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


class TestBlocks:
    @pytest.mark.parametrize("block", [1, 3, 4, CHAIN_BLOCK])
    def test_agrees_with_naive_order(self, monkeypatch, naive_orders,
                                     block):
        # 3 leaves a short last block at every n; 4 makes the last entry
        # of F_2's chain a block end
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        for (n, base), want in naive_orders.items():
            assert order_alpha(n, base).order == want, (n, base, block)

    @pytest.mark.parametrize("block", [1, 3, CHAIN_BLOCK])
    def test_found_alpha_costs_at_most_one_block_more(self, monkeypatch,
                                                      block):
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        for n, base in [(2, 1), (5, 2), (6, pseudoprime_base(6, 274177)),
                        (12, 2)]:
            # the Pepin chain that _bound runs for F_2 is not the search's
            primality.fermat_is_prime(n)
            counts.clear()
            r = order_alpha(n, base)
            assert r.alpha is not None and r.squarings_used == r.alpha
            assert r.alpha <= sum(counts) <= r.alpha + block

    @pytest.mark.parametrize("block", [3, 4, CHAIN_BLOCK])
    def test_found_alpha_is_read_in_one_pass(self, monkeypatch, block):
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        for n, base in [(5, 2), (6, pseudoprime_base(6, 274177)), (12, 2),
                        (12, pseudoprime_base(12, 114689))]:
            counts.clear()
            alpha = order_alpha(n, base).alpha
            # the blocks run up to the first end at or past alpha
            ends = list(accumulate(counts))
            blocks = next(i for i, end in enumerate(ends, 1) if end >= alpha)
            end = ends[blocks - 1]
            # then one squaring per call from that block's start up to
            # alpha, short of the block's end, which the blocks read
            assert counts[blocks:] \
                == [1] * (min(alpha, end - 1) - (end - counts[blocks - 1]))

    @staticmethod
    def assert_ends_on_stops(counts, block, stops, start=0):
        """Each call of a chain that starts at index start ends on one of
        stops or on a multiple of the block length."""
        ends = list(accumulate(counts, initial=start))[1:]
        assert all(end in stops or end % block == 0 for end in ends), \
            (block, ends)
        return ends

    @pytest.mark.parametrize("block", [1, 3, 4, CHAIN_BLOCK])
    def test_taps_and_pepin_agree_with_pow(self, monkeypatch, block):
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        for n in (2, 5, 10):
            last, m = 1 << n, fermat_value(n)
            counts.clear()
            taps = primality.chain_taps(n, 7)
            assert [taps.quarter.value, taps.half.value, taps.full.value] \
                == [pow(7, 1 << k, m) for k in (last - 2, last - 1, last)]
            self.assert_ends_on_stops(counts, block,
                                      {last - 2, last - 1, last})
            counts.clear()
            half = primality.pepin_test(n, 3)[1]
            assert half.value == pow(3, 1 << (last - 1), m)
            self.assert_ends_on_stops(counts, block, {last - 1})

    @pytest.mark.parametrize("block", [1, 3, 4, CHAIN_BLOCK])
    def test_batched_audit_row_agrees_with_pow(self, monkeypatch, block):
        # the batch of 8 chains at n = 12 squares on the FFT; with no
        # known factor, none refutes a base and leaves its row without a
        # chain
        pytest.importorskip("numpy")
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        n, bases = 12, default_audit_bases()[:8]
        last, m = 1 << n, fermat_value(n)
        report = primality.audit_range([n], bases)
        # one entry per chain, so each call of the batch is len(bases)
        # equal entries
        calls = counts[::len(bases)]
        assert counts == [c for c in calls for _ in bases]
        assert self.assert_ends_on_stops(calls, block,
                                         {last - 2, last - 1, last})[-1] \
            == last
        for row in report.rows:
            quarter = pow(row.base, 1 << (last - 2), m)
            taps = row.verdict.taps
            assert [taps.quarter.value, taps.half.value, taps.full.value] \
                == [quarter, quarter ** 2 % m, quarter ** 4 % m], row.base

    @pytest.mark.parametrize("block", [1, 3, 4, CHAIN_BLOCK])
    def test_leaving_the_loop_squares_nothing_further(self, monkeypatch,
                                                      block):
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        counts = spy_on_squarings(monkeypatch)
        blocks = arith.square_blocks([3], [reduce_fold(3, 10)], 0, [1 << 10])
        for index, (x,) in blocks:
            break
        assert (index, counts) == (block, [block])
        assert x.value == pow(3, 1 << block, fermat_value(10))

    @pytest.mark.parametrize("block", [1, 3, 4, CHAIN_BLOCK])
    def test_resumed_writer_cuts_at_block_multiples(self, tmp_path,
                                                    monkeypatch, block):
        # block ends count from the chain's start, not from the resumed
        # index: 64 and 128 at block = 64, then the pause at 130
        m = fermat_value(8)
        save_checkpoint(Checkpoint.capture(8, 3, 5, pow(3, 1 << 5, m)),
                        tmp_path)
        monkeypatch.setattr(arith, "CHAIN_BLOCK", block)
        writer = CheckpointWriter(8, 3, tmp_path, every_squarings=10 ** 9,
                                  every_seconds=0, stop_after=130)
        counts = spy_on_squarings(monkeypatch)
        with pytest.raises(ChainPaused) as paused:
            writer.run()
        assert paused.value.index == 130
        ends = self.assert_ends_on_stops(counts, block, {130}, start=5)
        assert ends == [end for end in range(6, 131)
                        if end % block == 0 or end == 130]
        assert load_matching(tmp_path, 8, 3).residue == pow(3, 1 << 130, m)

    def test_not_totally_even_squares_the_whole_chain(self, monkeypatch):
        # with no known factor to prove it, as at n = 20
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
        counts = spy_on_squarings(monkeypatch)
        r = order_alpha(10, 3)
        assert r.alpha is None and r.squarings_used == 1 << 10
        assert sum(counts) == 1 << 10
        assert max(counts) == CHAIN_BLOCK

    def test_known_factor_proves_not_totally_even(self, monkeypatch):
        counts = spy_on_squarings(monkeypatch)
        r = order_alpha(10, 3)
        assert r.alpha is None and r.squarings_used == 1 << 10
        assert counts == []


@pytest.mark.parametrize("n", range(5, 13))
def test_known_factors_agree_with_the_chain(monkeypatch, fresh_prime_cache,
                                           n):
    bases = default_audit_bases() + [pseudoprime_base(n, p)
                                     for p in factors.KNOWN_FACTORS[n]]
    with_table = [order_alpha(n, base) for base in bases
                  if math.gcd(base, fermat_value(n)) == 1]
    monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
    fresh_prime_cache()
    assert with_table == [order_alpha(n, r.base) for r in with_table]


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
        # with no known factor, which would prove the result unsquared
        monkeypatch.setattr(factors, "KNOWN_FACTORS", {})
        chains = spy_on_squarings(monkeypatch)
        r = order_alpha(14, 5)
        assert r.alpha is None and r.squarings_used == 1 << 14
        # the blocks double from 1 to CHAIN_BLOCK, then stay there
        assert calls[0] == len(chains) \
            == (1 << 14) // CHAIN_BLOCK + CHAIN_BLOCK.bit_length() - 1


def test_order_at_18_runs_no_pepin_chain(monkeypatch):
    # F_18's known factor decides the bound, which took a Pepin chain of
    # 2^18 - 1 squarings; the search itself squares under 3 * alpha
    counts = spy_on_squarings(monkeypatch)
    r = order_alpha(18, 2)
    assert (r.alpha, r.bound_satisfied) == (19, True)
    assert sum(counts) < 3 * 19
