"""Fold-reduction arithmetic against fixtures and the division oracle."""

import pytest
from hypothesis import given, strategies as st

from fermatlab import arith, oracle
from fermatlab.arith import (
    FermatResidue,
    fermat_value,
    from_hex,
    mod_mul,
    mod_square_chain,
    reduce_fold,
    to_hex,
)
from fermatlab.errors import IndexOutOfRangeError, ModulusMismatchError

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
        for bad in ("", "0x1", "G", "A1", " 1", "01x"):
            with pytest.raises(ValueError):
                from_hex(bad)
        with pytest.raises(ValueError):
            to_hex(-1)


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

    def test_observer_sees_every_step(self):
        seen = []
        a = reduce_fold(3, 3)
        final = mod_square_chain(a, 9, lambda i, v: seen.append((i, v())))
        assert [i for i, _ in seen] == list(range(1, 10))
        assert seen[-1][1] == final.value
        m = fermat_value(3)
        for i, v in seen:
            assert v == oracle.naive_pow(3, 1 << i, m)

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
