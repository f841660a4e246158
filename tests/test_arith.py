"""Fold-reduction arithmetic against fixtures and the division oracle."""

import pytest
from hypothesis import given, strategies as st

from conftest import full_crt_base, pseudoprime_base, spy_on_squarings

from fermatlab import arith, oracle
from fermatlab.arith import (
    FermatResidue,
    fermat_value,
    from_hex,
    mod_mul,
    mod_square_chain,
    mod_square_chains,
    reduce_fold,
    to_hex,
)
from fermatlab.errors import IndexOutOfRangeError, ModulusMismatchError
from fermatlab.orders import order_alpha
from fermatlab.primality import audit_range, classify_report, pepin_test

F5 = (1 << 32) + 1


class TestFermatValue:
    def test_small_fixtures(self):
        assert fermat_value(0) == 3
        assert fermat_value(1) == 5
        assert fermat_value(2) == 17
        assert fermat_value(3) == 257
        assert fermat_value(4) == 65537
        assert fermat_value(5) == 4294967297

    def test_index_guard(self):
        with pytest.raises(IndexOutOfRangeError):
            fermat_value(-1)
        with pytest.raises(IndexOutOfRangeError):
            fermat_value(arith.DEFAULT_MAX_INDEX + 1)

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(arith.MAX_INDEX_ENV, "4")
        with pytest.raises(IndexOutOfRangeError):
            fermat_value(5)
        monkeypatch.setenv(arith.MAX_INDEX_ENV, "25")
        assert fermat_value(25) == (1 << (1 << 25)) + 1

    def test_env_override_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(arith.MAX_INDEX_ENV, "soon")
        with pytest.raises(IndexOutOfRangeError):
            fermat_value(3)
        monkeypatch.setenv(arith.MAX_INDEX_ENV, "-3")
        with pytest.raises(IndexOutOfRangeError):
            fermat_value(3)


class TestHex:
    def test_round_trip(self):
        for x in (0, 1, 15, 16, 255, F5, 1 << 200):
            assert from_hex(to_hex(x)) == x

    def test_canonical_form(self):
        assert to_hex(0) == "0"
        assert to_hex(641) == "281"
        assert to_hex(1 << 32) == "100000000"

    def test_rejections(self):
        for bad in ("", "0x1", "G", "A1", " 1", "01x", "1_0", "+1",
                    "\u0661", "\u00e9"):
            with pytest.raises(ValueError):
                from_hex(bad)
        with pytest.raises(ValueError):
            to_hex(-1)

    @given(st.one_of(st.integers(min_value=0),
                     st.integers(0, 20).map(lambda n: 1 << (1 << n))))
    def test_to_hex_is_format(self, x):
        assert to_hex(x) == format(x, "x")

    @given(st.one_of(
        st.text("0123456789abcdef"), st.text("0123456789abcdefABCDEFx"),
        st.text(), st.integers(min_value=0).map(lambda x: f"0x{x:x}"),
        st.integers(0, 16).map(lambda n: format(1 << (1 << n), "x"))))
    def test_from_hex_takes_lowercase_digits_only(self, text):
        # int(text, 16) also takes uppercase, a 0x prefix, signs,
        # underscores, spaces and non-ASCII digits
        if text and set(text) <= set("0123456789abcdef"):
            assert from_hex(text) == int(text, 16)
        else:
            with pytest.raises(ValueError, match="not a lowercase hex"):
                from_hex(text)


class TestFermatResidue:
    def test_range_enforced(self):
        FermatResidue(5, 1 << 32)  # the -1 representative is in range
        with pytest.raises(ValueError):
            FermatResidue(5, (1 << 32) + 1)
        with pytest.raises(ValueError):
            FermatResidue(5, -1)

    def test_flags(self):
        assert FermatResidue(5, 1).is_one
        assert FermatResidue(5, 1 << 32).is_minus_one
        assert not FermatResidue(5, 2).is_one
        assert FermatResidue(5, F5 - 1).is_minus_one


class TestReduceFold:
    def test_fixtures(self):
        assert reduce_fold(F5, 5).value == 0
        assert reduce_fold(1 << 32, 5).value == 1 << 32
        # derived: cross-checked against the division route right here
        got = reduce_fold(1 << 33, 5).value
        assert got == 4294967295
        assert got == oracle.naive_mod(1 << 33, F5)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            reduce_fold(-1, 5)

    @given(st.data())
    def test_matches_division_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=8))
        bits = 4 * (1 << n)
        x = data.draw(st.integers(min_value=0, max_value=(1 << bits) - 1))
        assert reduce_fold(x, n).value == oracle.naive_mod(x, fermat_value(n))

    @given(st.data())
    def test_huge_inputs_still_match(self, data):
        # many folding passes: inputs far beyond one digit pair
        n = data.draw(st.integers(min_value=0, max_value=4))
        x = data.draw(st.integers(min_value=0, max_value=1 << 600))
        assert reduce_fold(x, n).value == oracle.naive_mod(x, fermat_value(n))


class TestModMul:
    def test_fixtures(self):
        x = FermatResidue(5, 123456789)
        one = FermatResidue(5, 1)
        assert mod_mul(x, one).value == x.value
        minus = FermatResidue(5, 1 << 32)
        assert mod_mul(minus, minus).value == 1
        assert mod_mul(FermatResidue(5, 641),
                       FermatResidue(5, 6700417)).value == 0

    def test_modulus_mismatch(self):
        with pytest.raises(ModulusMismatchError):
            mod_mul(FermatResidue(5, 1), FermatResidue(4, 1))

    @given(st.data())
    def test_commutative_and_associative(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        top = 1 << (1 << n)
        vals = [data.draw(st.integers(min_value=0, max_value=top))
                for _ in range(3)]
        a, b, c = (FermatResidue(n, v) for v in vals)
        ab = mod_mul(a, b)
        assert ab.value == mod_mul(b, a).value
        assert mod_mul(ab, c).value == mod_mul(a, mod_mul(b, c)).value

    @given(st.data())
    def test_matches_division_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=8))
        top = 1 << (1 << n)
        x = data.draw(st.integers(min_value=0, max_value=top))
        y = data.draw(st.integers(min_value=0, max_value=top))
        got = mod_mul(FermatResidue(n, x), FermatResidue(n, y)).value
        assert got == oracle.naive_mod(x * y, fermat_value(n))

    @pytest.mark.parametrize("n", range(2, 14))
    def test_fold_at_the_edges(self, n):
        # x * y <= 2^(2N), so p mod 2^N - p >> 2^N is the whole fold,
        # also for 2^N * 2^N
        top = 1 << (1 << n)
        for x in (0, 1, top):
            for y in (0, 1, top):
                got = arith._mulmod(x, y, 1 << n, top, top - 1)
                assert got == oracle.naive_mod(x * y, top + 1)

    @given(st.data())
    def test_fold_matches_division_oracle(self, data):
        n = data.draw(st.integers(min_value=2, max_value=13))
        top = 1 << (1 << n)
        values = st.one_of(st.sampled_from([0, 1, top]),
                           st.integers(min_value=0, max_value=top))
        x, y = data.draw(values), data.draw(values)
        got = arith._mulmod(x, y, 1 << n, top, top - 1)
        assert got == oracle.naive_mod(x * y, top + 1)

    @given(st.data())
    def test_canonical_range(self, data):
        n = data.draw(st.integers(min_value=0, max_value=8))
        top = 1 << (1 << n)
        x = data.draw(st.integers(min_value=0, max_value=top))
        y = data.draw(st.integers(min_value=0, max_value=top))
        assert 0 <= mod_mul(FermatResidue(n, x),
                            FermatResidue(n, y)).value <= top


class TestSquareChain:
    def test_fixtures(self):
        a = FermatResidue(5, 12345)
        assert mod_square_chain(a, 0).value == a.value
        assert mod_square_chain(reduce_fold(3, 2), 2).value == 13
        assert mod_square_chain(reduce_fold(2, 5), 5).value == 1 << 32

    def test_count_validation(self):
        with pytest.raises(ValueError):
            mod_square_chain(FermatResidue(2, 3), -1)
        with pytest.raises(ValueError):
            mod_square_chains([FermatResidue(2, 3)] * 2, -1)

    def test_batch_needs_one_index(self):
        with pytest.raises(ModulusMismatchError):
            mod_square_chains([FermatResidue(5, 3), FermatResidue(6, 3)], 1)

    @given(st.data())
    def test_batch_matches_single_chains(self, data):
        n = data.draw(st.integers(min_value=0, max_value=8))
        top = 1 << (1 << n)
        residues = [FermatResidue(n, v) for v in data.draw(st.lists(
            st.integers(min_value=0, max_value=top), min_size=1,
            max_size=8))]
        count = data.draw(st.integers(min_value=0, max_value=40))
        assert mod_square_chains(residues, count) \
            == [mod_square_chain(a, count) for a in residues]

    @given(st.data())
    def test_chain_composition(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        top = 1 << (1 << n)
        a = FermatResidue(n, data.draw(
            st.integers(min_value=0, max_value=top)))
        j = data.draw(st.integers(min_value=0, max_value=64))
        k = data.draw(st.integers(min_value=0, max_value=64 - j))
        whole = mod_square_chain(a, j + k)
        split = mod_square_chain(mod_square_chain(a, j), k)
        assert whole.value == split.value

    @given(st.data())
    def test_matches_pow_oracle(self, data):
        n = data.draw(st.integers(min_value=0, max_value=6))
        base = data.draw(st.integers(min_value=0, max_value=1 << 20))
        count = data.draw(st.integers(min_value=0, max_value=40))
        got = mod_square_chain(reduce_fold(base, n), count).value
        assert got == oracle.naive_pow(base, 1 << count, fermat_value(n))


class TestSquareBlocks:
    def test_no_squaring_call_gets_a_one(self, monkeypatch):
        # 1 squares to 1, so a lone chain at 1 is squared no further:
        # base 2's gets there at index n + 1, and a pseudoprime base's
        # before its quarter tap
        seen = []
        real = arith.mod_square_chains

        def spy(residues, count):
            seen.extend(residues)
            return real(residues, count)

        monkeypatch.setattr(arith, "mod_square_chains", spy)
        audit_range(range(5, 13), [2])
        classify_report(12, pseudoprime_base(12, 114689))
        classify_report(9, full_crt_base(9))
        order_alpha(10, 2)
        pepin_test(12, 2, allow_any_base=True)
        assert seen and all(not x.is_one for x in seen)

    def test_batch_squares_whole_until_all_are_at_one(self, monkeypatch):
        # 4 is 1 from index 5 on at n = 5, 2 from index 6: the batch
        # keeps both chains until both are at 1, then squares nothing
        counts = spy_on_squarings(monkeypatch)
        residues = [reduce_fold(2, 5), reduce_fold(4, 5)]
        got = list(arith.square_blocks([2, 4], residues, 0, [3, 5, 40, 100]))
        assert counts == [3, 3, 2, 2, 35, 35]
        assert [index for index, _ in got] == [3, 5, 40, 100]
        assert got[-1][1] == [FermatResidue(5, 1)] * 2

    @pytest.mark.parametrize("bases, values", [([3, 5], [3]), ([3], [3, 5])],
                             ids=["base-without-chain", "chain-without-base"])
    def test_bases_pair_one_to_one_with_residues(self, monkeypatch, bases,
                                                 values):
        counts = spy_on_squarings(monkeypatch)
        blocks = arith.square_blocks(
            bases, [FermatResidue(5, v) for v in values], 0, [10])
        with pytest.raises(ValueError, match="bases for"):
            next(blocks)
        assert counts == []
