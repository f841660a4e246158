"""The FFT squaring kernel against the integer multiply it stands in for.

The integer kernel of arith (`_mulmod`) is the reference: every chain
run on the FFT kernel must give the same residues, at every step, also
when the roundoff guard fires and the squaring is redone on integers.
Chains below the crossover go through `mod_square_chain` with
`arith.FFT_MIN_INDEX` lowered to the kernel's own minimum, so they run
the production loop.
"""

import json
import subprocess
import sys

import pytest
from hypothesis import given, strategies as st

from conftest import SELFTEST_CHECKS, run_cli

from fermatlab import arith, primality
from fermatlab.arith import FermatResidue, _mulmod, mod_square_chain
from fermatlab.orders import order_alpha
from fermatlab.records import strip_timing

np = pytest.importorskip("numpy")
from fermatlab import _fft  # noqa: E402


def int_chain(value: int, n: int, count: int) -> int:
    width = 1 << n
    top = 1 << width
    for _ in range(count):
        value = _mulmod(value, value, width, top, top - 1)
    return value


def fft_chain(value: int, n: int, count: int, observer=None) -> int:
    """mod_square_chain on the FFT kernel, also below the crossover."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "FFT_MIN_INDEX", _fft.MIN_INDEX)
        return mod_square_chain(FermatResidue(n, value), count,
                                observer).value


def edge_or_any(n: int):
    """Residues of F_n, with 0, 1, 2, 2^N - 1 and 2^N (= -1) drawn often."""
    top = 1 << (1 << n)
    return st.one_of(st.sampled_from([0, 1, 2, top - 1, top]),
                     st.integers(min_value=0, max_value=top))


class TestDigitConversion:
    @given(st.data())
    def test_round_trip(self, data):
        n = data.draw(st.integers(min_value=_fft.MIN_INDEX, max_value=16))
        value = data.draw(edge_or_any(n))
        plan = _fft._plan(n)
        digits = _fft.to_digits(value, plan)
        assert len(digits) == (1 << n) // _fft.DIGIT_BITS
        assert np.abs(digits).max() <= (1 << 15) + 1
        assert _fft.to_int(digits, plan) == value


class TestAgainstIntegerChain:
    @given(st.data())
    def test_chains_match(self, data):
        n = data.draw(st.integers(min_value=_fft.MIN_INDEX, max_value=16))
        value = data.draw(edge_or_any(n))
        count = data.draw(st.integers(min_value=0, max_value=24))
        before = _fft.fallbacks
        assert fft_chain(value, n, count) == int_chain(value, n, count)
        # real residues stay far below the roundoff limit
        assert _fft.fallbacks == before

    def test_observer_values_are_snapshots(self):
        # each callable returns its own step's residue, even when called
        # after the chain has moved on
        seen = []
        final = fft_chain(3, 10, 12, lambda i, v: seen.append((i, v)))
        assert [i for i, _ in seen] == list(range(1, 13))
        assert [v() for _, v in seen] \
            == [int_chain(3, 10, i) for i in range(1, 13)]
        assert final == seen[-1][1]()

    def test_order_after_fallbacks(self, monkeypatch):
        # every squaring is redone on integers and reloaded by to_digits;
        # 2 has order 2^(n + 1)
        real = _fft._transform

        def half_off(digits, plan):
            product = real(digits, plan)
            _half_off(product)
            return product

        monkeypatch.setattr(_fft, "_transform", half_off)
        monkeypatch.setattr(arith, "FFT_MIN_INDEX", _fft.MIN_INDEX)
        before = _fft.fallbacks
        assert order_alpha(10, 2).alpha == 11
        assert _fft.fallbacks > before

    def test_index_below_minimum_refused(self):
        with pytest.raises(ValueError):
            _fft.kernel(_fft.MIN_INDEX - 1)

    def test_backend_follows_the_index(self, monkeypatch):
        calls = []
        real = _fft.kernel

        def spy(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(_fft, "kernel", spy)
        for n in (arith.FFT_MIN_INDEX - 1, arith.FFT_MIN_INDEX):
            got = mod_square_chain(FermatResidue(n, 3), 3).value
            assert got == int_chain(3, n, 3)
        assert calls == [arith.FFT_MIN_INDEX]


def _half_off(product):
    product[0] += 0.5


def _nan(product):
    product[3] = np.nan


def _ripple(product):
    # integral, so the roundoff test passes; the carry then runs along
    # every digit and round the negacyclic wrap, past any pass limit
    product[:] = (1 << 15) - 1
    product[0] = 1 << 15


class TestRoundoffGuard:
    N = 10  # 64 digits: a carry ripple outlasts MAX_CARRY_PASSES
    COUNT = 20

    @pytest.mark.parametrize("fault", [_half_off, _nan, _ripple],
                             ids=["roundoff-0.5", "nan", "carry-unsettled"])
    @pytest.mark.parametrize("steps", [{7}, {1, 2, 13, 20}],
                             ids=["one-step", "four-steps"])
    def test_faulty_steps_are_redone_on_integers(self, monkeypatch, fault,
                                                 steps):
        assert _fft.MAX_CARRY_PASSES < 1 << (self.N - 4)
        real = _fft._transform
        calls = [0]

        def faulty(digits, plan):
            calls[0] += 1
            product = real(digits, plan)
            if calls[0] in steps:
                fault(product)
            return product

        monkeypatch.setattr(_fft, "_transform", faulty)
        before = _fft.fallbacks
        got = fft_chain(3, self.N, self.COUNT)
        assert got == int_chain(3, self.N, self.COUNT)
        assert _fft.fallbacks - before == len(steps)


# Run a CLI command in a fresh interpreter, then report on the last line
# of stderr which of numpy and multiprocessing were loaded, as JSON; a
# first argument of "block" makes numpy unimportable.
_PROBE = """\
import json, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
from fermatlab.cli import main
code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
print(json.dumps({name: sys.modules.get(name) is not None
                  for name in ("numpy", "multiprocessing")}),
      file=sys.stderr)
sys.exit(code)
"""


def probe(mode: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", _PROBE, mode, *args],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stderr.splitlines()[-1])


class TestImportHygiene:
    @pytest.mark.parametrize("args", [(), ("classify", "12", "--base", "7"),
                                      ("order", "12", "--base", "5"),
                                      ("factor", "9", "--k-max", "100"),
                                      ("audit", "--n-range", "5..8")],
                             ids=["import", "classify-12", "order-12",
                                  "factor-9", "audit-5-8"])
    def test_below_crossover_numpy_stays_unloaded(self, args):
        # and so does multiprocessing, outside an audit worth a pool
        assert loaded(probe("allow", *args)) \
            == {"numpy": False, "multiprocessing": False}

    @pytest.mark.skipif(primality._usable_cpus() < 2,
                        reason="one usable CPU: no audit is pooled")
    def test_pooled_audit_loads_multiprocessing_only(self):
        assert loaded(probe("allow", "audit", "--n-range", "10..12",
                            "--bases", "2,3,5,7")) \
            == {"numpy": False, "multiprocessing": True}

    @pytest.mark.skipif(primality._usable_cpus() < 2,
                        reason="one usable CPU: no classify is pooled")
    def test_pooled_classify_loads_multiprocessing_only(self):
        # 2 * 4^13 squarings times bits: the base and base-3 chains of
        # classify share the pool, as a one-row audit's
        assert loaded(probe("allow", "classify", "13", "--base", "7")) \
            == {"numpy": False, "multiprocessing": True}

    def test_pepin_without_numpy_gives_the_same_record(self):
        blocked = probe("block", "pepin", "14")
        assert not loaded(blocked)["numpy"]
        with_numpy = run_cli("pepin", "14")
        assert with_numpy.code == 0
        assert strip_timing(with_numpy.json()) \
            == strip_timing(json.loads(blocked.stdout))

    def test_selftest_runs_the_same_checks_without_numpy(self):
        blocked = probe("block", "selftest")
        assert loaded(blocked) == {"numpy": False, "multiprocessing": False}
        with_numpy = run_cli("selftest").json()
        assert json.loads(blocked.stdout)["checks_run"] \
            == with_numpy["checks_run"] == SELFTEST_CHECKS
