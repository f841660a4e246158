"""The FFT squaring backend against the integer multiply it stands in for.

The integer multiply of arith (`_mulmod`) is the reference: every chain
run on the FFT backend, alone or in a batch, must give the same
residues, at every step, also when the roundoff guard refuses a
squaring: the kernel then refuses its whole call, and arith squares the
call again on integers.
Chains below the crossover go through `mod_square_chain` with
`arith.FFT_MIN_INDEX` lowered to the backend's own minimum, so they run
the production call.
"""

import json
import multiprocessing
import os
import random
import subprocess
import sys
import threading

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


def fft_chain(value: int, n: int, count: int) -> int:
    """mod_square_chain on the FFT backend, also below the crossover."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(arith, "FFT_MIN_INDEX", _fft.MIN_INDEX)
        return mod_square_chain(FermatResidue(n, value), count).value


def edge_or_any(n: int):
    """Residues of F_n, with 0, 1, 2, 2^N - 1 and 2^N (= -1) drawn often."""
    top = 1 << (1 << n)
    return st.one_of(st.sampled_from([0, 1, 2, top - 1, top]),
                     st.integers(min_value=0, max_value=top))


class TestDigitConversion:
    @given(st.data())
    def test_round_trip(self, data):
        # a batch, so that a row of -1 sits beside rows of other values
        n = data.draw(st.integers(min_value=_fft.MIN_INDEX, max_value=16))
        values = data.draw(st.lists(edge_or_any(n), min_size=1, max_size=4))
        plan = _fft._plan(n)
        digits = _fft.to_digits(values, plan)
        assert digits.shape == (len(values), (1 << n) // _fft.DIGIT_BITS)
        assert np.abs(digits).max() <= (1 << 15) + 1
        assert _fft.to_int(digits, plan) == values


class TestAgainstIntegerChain:
    @given(st.data())
    def test_chains_match(self, data):
        n = data.draw(st.integers(min_value=_fft.MIN_INDEX, max_value=16))
        value = data.draw(edge_or_any(n))
        count = data.draw(st.integers(min_value=0, max_value=24))
        expected = int_chain(value, n, count)
        assert fft_chain(value, n, count) == expected
        # real residues stay far below the roundoff limit: the kernel
        # refuses no call
        assert _fft.square_chain([value], count, n) == [expected]

    def test_order_after_fallbacks(self, monkeypatch):
        # every kernel call is refused at its first squaring and squared
        # again on integers; 2 has order 2^(n + 1)
        real, real_chain = _fft._transform, _fft.square_chain
        results = []

        def half_off(digits, plan):
            product = real(digits, plan)
            _half_off(product)
            return product

        def spy(values, count, n):
            results.append(real_chain(values, count, n))
            return results[-1]

        monkeypatch.setattr(_fft, "_transform", half_off)
        monkeypatch.setattr(_fft, "square_chain", spy)
        monkeypatch.setattr(arith, "FFT_MIN_INDEX", _fft.MIN_INDEX)
        assert order_alpha(10, 2).alpha == 11
        assert results
        assert all(result is None for result in results)

    def test_index_below_minimum_refused(self):
        with pytest.raises(ValueError):
            _fft.square_chain([3], 1, _fft.MIN_INDEX - 1)

    def test_backend_follows_the_index(self, monkeypatch):
        calls = []
        real = _fft.square_chain

        def spy(value, count, n):
            calls.append(n)
            return real(value, count, n)

        monkeypatch.setattr(_fft, "square_chain", spy)
        for n in (arith.FFT_MIN_INDEX - 1, arith.FFT_MIN_INDEX):
            got = mod_square_chain(FermatResidue(n, 3), 3).value
            assert got == int_chain(3, n, 3)
        assert calls == [arith.FFT_MIN_INDEX]

    def test_numpy_before_2_squares_on_integers(self, monkeypatch):
        # the backend's FFTs write with out=, which numpy 1.x lacks
        monkeypatch.setattr(np, "__version__", "1.26.4")
        monkeypatch.delitem(sys.modules, "fermatlab._fft")
        monkeypatch.delattr("fermatlab._fft")
        arith._fft_backend.cache_clear()
        try:
            assert arith._fft_backend() is None
            n = arith.FFT_MIN_INDEX
            got = mod_square_chain(FermatResidue(n, 3), 3).value
            assert got == int_chain(3, n, 3)
        finally:
            arith._fft_backend.cache_clear()


class TestNoSharedState:
    def test_chains_in_two_threads(self):
        # each call squares on arrays of its own, never on the plan's
        n, count = 14, 200
        modulus = (1 << (1 << n)) + 1
        values = [3, modulus // 7]
        got = {}

        def run(value):
            got[value] = _fft.square_chain([value], count, n)

        threads = [threading.Thread(target=run, args=(value,))
                   for value in values]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        # each thread's own result, not refused (None)
        assert got == {value: [pow(value, 1 << count, modulus)]
                       for value in values}

    def test_chain_at_18(self):
        # the property tests stop at n = 16
        n = 18
        value = random.Random(n).getrandbits(1 << n)
        assert _fft.square_chain([value], 64, n) == [int_chain(value, n, 64)]


def _half_off(product):
    product[..., 0] += 0.5


def _nan(product):
    product[..., 3] = np.nan


def _ripple(product):
    # integral, so the roundoff test passes; the carry then runs along
    # every digit and round the negacyclic wrap, past any pass limit
    product[:] = (1 << 15) - 1
    product[..., 0] = 1 << 15


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
        # the kernel stops at the first faulty step and refuses the call
        assert _fft.square_chain([3], self.COUNT, self.N) is None
        assert calls[0] == min(steps)
        calls[0] = 0
        got = fft_chain(3, self.N, self.COUNT)
        assert got == int_chain(3, self.N, self.COUNT)
        # ... and mod_square_chain squares it again on integers
        assert calls[0] == min(steps)


class TestBatches:
    COUNT = 9

    @pytest.mark.parametrize("rows", [1, 2, 7, 25])
    @pytest.mark.parametrize("n", range(_fft.MIN_INDEX, 15))
    def test_each_row_is_its_own_chain(self, n, rows):
        top = 1 << (1 << n)
        rng = random.Random(100 * n + rows)
        values = [top, 0, 1, *(rng.randrange(top + 1)
                               for _ in range(rows))][:rows]
        got = _fft.square_chain(values, self.COUNT, n)
        assert got == [_fft.square_chain([value], self.COUNT, n)[0]
                       for value in values]
        assert got == [int_chain(value, n, self.COUNT) for value in values]
        assert got == [pow(value, 1 << self.COUNT, top + 1)
                       for value in values]

    @pytest.mark.parametrize("fault", [_half_off, _nan, _ripple],
                             ids=["roundoff-0.5", "nan", "carry-unsettled"])
    def test_fault_in_one_row_redoes_the_batch(self, monkeypatch, fault):
        # the guard is taken over the whole batch, so one bad row
        # refuses the call for every row, and mod_square_chains squares
        # the batch again chain by chain
        n, rows, step = 10, 7, 5
        top = 1 << (1 << n)
        values = [top, 0, 1, *range(3, 3 + rows - 3)]
        real = _fft._transform
        calls = [0]

        def faulty(digits, work):
            calls[0] += 1
            product = real(digits, work)
            if calls[0] == step:
                fault(product[3:4])
            return product

        monkeypatch.setattr(_fft, "_transform", faulty)
        assert _fft.square_chain(values, self.COUNT, n) is None
        assert calls[0] == step
        calls[0] = 0
        # the batch on the FFT, a lone chain at n = 10 on integers
        monkeypatch.setitem(arith.FFT_MIN_BATCH, n, rows)
        got = arith.mod_square_chains(
            [FermatResidue(n, value) for value in values], self.COUNT)
        assert [a.value for a in got] \
            == [int_chain(value, n, self.COUNT) for value in values]
        assert calls[0] == step

    @pytest.mark.parametrize("fault", [_half_off, _nan, _ripple],
                             ids=["roundoff-0.5", "nan", "carry-unsettled"])
    def test_refused_batch_goes_straight_to_integers(self, monkeypatch,
                                                     fault):
        # at n = 14 a lone chain runs on the FFT as well; a refused
        # batch is squared on integers, with no second FFT attempt
        n, count, step = 14, 64, 5
        top = 1 << (1 << n)
        values = [3, top, random.Random(n).randrange(top + 1)]
        real = _fft._transform
        calls = [0]

        def faulty(digits, work):
            calls[0] += 1
            product = real(digits, work)
            if calls[0] >= step:
                fault(product)
            return product

        monkeypatch.setattr(_fft, "_transform", faulty)
        got = arith.mod_square_chains(
            [FermatResidue(n, value) for value in values], count)
        assert [a.value for a in got] \
            == [pow(value, 1 << count, top + 1) for value in values]
        assert calls[0] == step

    def test_backend_follows_index_and_batch(self, monkeypatch):
        calls = []
        real = _fft.square_chain

        def spy(values, count, n):
            calls.append((n, len(values)))
            return real(values, count, n)

        monkeypatch.setattr(_fft, "square_chain", spy)
        least = arith.FFT_MIN_BATCH
        cases = [(n, rows) for n in sorted(least)
                 for rows in (least[n] - 1, least[n])]
        cases += [(min(least) - 1, 64), (arith.FFT_MIN_INDEX, 1)]
        for n, rows in cases:
            residues = [FermatResidue(n, 3 + row) for row in range(rows)]
            got = arith.mod_square_chains(residues, 2)
            assert [a.value for a in got] \
                == [int_chain(3 + row, n, 2) for row in range(rows)]
        assert calls == [(n, least[n]) for n in sorted(least)] \
            + [(arith.FFT_MIN_INDEX, 1)]


# Run a CLI command in a fresh interpreter, then report on the last line
# of stderr which of numpy and multiprocessing were loaded, as JSON; a
# first argument of "block" makes numpy unimportable.
_PROBE = """\
import sys
bare = set(sys.modules)
if sys.argv[1] == "block":
    sys.modules["numpy"] = None
if sys.argv[1] == "package":
    import fermatlab
    code = 0
else:
    from fermatlab.cli import main
    code = main(sys.argv[2:]) if len(sys.argv) > 2 else 0
loaded = sorted(name for name, module in sys.modules.items()
                if module is not None and name not in bare)
import json
print(json.dumps(loaded), file=sys.stderr)
sys.exit(code)
"""


# Run a CLI command in a fresh interpreter, then report on the last line
# of stderr how many threads the process has.
_THREADS_PROBE = """\
import os, sys
from fermatlab.cli import main
code = main(sys.argv[1:])
print(len(os.listdir("/proc/self/task")), file=sys.stderr)
sys.exit(code)
"""


# Run a CLI command in a fresh interpreter with 2 usable CPUs, then
# report on the last line of stderr, as JSON, whether numpy was loaded
# at each fork.
_FORK_PROBE = """\
import json, os, sys
forks = []
os.register_at_fork(before=lambda: forks.append("numpy" in sys.modules))
from fermatlab import primality
primality._usable_cpus = lambda: 2
from fermatlab.cli import main
code = main(sys.argv[1:])
print(json.dumps(forks), file=sys.stderr)
sys.exit(code)
"""


def probe(mode: str, *args: str) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, "-c", _PROBE, mode, *args],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc


def loaded(proc: subprocess.CompletedProcess) -> set:
    """The modules a probe loaded beyond those of a bare interpreter."""
    return set(json.loads(proc.stderr.splitlines()[-1]))


POOL_AND_NUMPY = {"numpy", "multiprocessing"}


class TestImportHygiene:
    @pytest.mark.parametrize("args", [(), ("classify", "12", "--base", "7"),
                                      ("classify", "13", "--base", "7"),
                                      ("order", "12", "--base", "5"),
                                      ("factor", "9", "--k-max", "100"),
                                      ("audit", "--n-range", "5..8")],
                             ids=["import", "classify-12", "classify-13",
                                  "order-12", "factor-9", "audit-5-8"])
    def test_below_crossover_numpy_stays_unloaded(self, args):
        # and so does multiprocessing, outside an audit worth a pool; a
        # known factor of F_13 decides its primality, so classify 13
        # runs one chain and starts no pool
        assert loaded(probe("allow", *args)) & POOL_AND_NUMPY == set()

    @pytest.mark.skipif(primality._usable_cpus() < 2,
                        reason="one usable CPU: no audit is pooled")
    def test_pooled_audit_loads_multiprocessing_only(self):
        assert loaded(probe("allow", "audit", "--n-range", "10..12",
                            "--bases", "2,3,5,7")) & POOL_AND_NUMPY \
            == {"multiprocessing"}

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="without fork, each worker imports numpy itself")
    def test_batched_audit_loads_numpy_before_the_fork(self):
        # the n = 12 chains run in two batches of 25; the workers
        # inherit numpy from the parent instead of each importing it
        proc = subprocess.run(
            [sys.executable, "-c", _FORK_PROBE, "audit", "--n-range",
             "5..12"], capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        forks = json.loads(proc.stderr.splitlines()[-1])
        assert forks and all(forks)

    @pytest.mark.skipif(not sys.platform.startswith("linux")
                        or primality._usable_cpus() < 2,
                        reason="no /proc/self/task, or one usable CPU: "
                               "no BLAS thread pool to start")
    def test_pepin_starts_no_blas_threads(self):
        env = {key: value for key, value in os.environ.items()
               if key != "OPENBLAS_NUM_THREADS"}
        proc = subprocess.run(
            [sys.executable, "-c", _THREADS_PROBE, "pepin", "14"],
            capture_output=True, text=True, env=env, timeout=600)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr.splitlines()[-1] == "1"

    def test_pepin_without_numpy_gives_the_same_record(self):
        blocked = probe("block", "pepin", "14")
        assert "numpy" not in loaded(blocked)
        with_numpy = run_cli("pepin", "14")
        assert with_numpy.code == 0
        assert strip_timing(with_numpy.json()) \
            == strip_timing(json.loads(blocked.stdout))

    def test_selftest_runs_the_same_checks_without_numpy(self):
        blocked = probe("block", "selftest")
        assert loaded(blocked) & POOL_AND_NUMPY == set()
        with_numpy = run_cli("selftest").json()
        assert json.loads(blocked.stdout)["checks_run"] \
            == with_numpy["checks_run"] == SELFTEST_CHECKS


class TestCommandImports:
    """Each CLI call loads only the modules its command runs."""

    @pytest.mark.parametrize("mode, modules", [
        ("package", {"fermatlab"}),
        ("allow", {"fermatlab", "fermatlab.cli"})],
        ids=["import-fermatlab", "import-fermatlab-cli"])
    def test_imports_load_no_other_fermatlab_module(self, mode, modules):
        assert {name for name in loaded(probe(mode))
                if name.partition(".")[0] == "fermatlab"} == modules

    def test_factor_loads_no_chain_code(self):
        assert loaded(probe("allow", "factor", "9", "--k-max", "100")) \
            & {"fermatlab.primality", "fermatlab.orders",
               "fermatlab.checkpoint", "fermatlab.selftest"} == set()

    @pytest.mark.parametrize("args", [("classify", "12", "--base", "7"),
                                      ("order", "12", "--base", "5"),
                                      ("pepin", "10")],
                             ids=["classify-12", "order-12", "pepin-10"])
    def test_queries_load_no_checkpoint_code(self, args):
        assert loaded(probe("allow", *args)) \
            & {"fermatlab.checkpoint", "fermatlab.selftest", "hashlib",
               "datetime"} == set()

    def test_pepin_on_numpy_loads_no_checkpoint_code(self):
        # without --checkpoint-dir; numpy itself loads datetime
        assert loaded(probe("allow", "pepin", "14")) \
            & {"fermatlab.checkpoint", "hashlib"} == set()

    @pytest.mark.parametrize("args", [("classify", "12", "--base", "7"),
                                      ("order", "12", "--base", "5"),
                                      ("pepin", "14")],
                             ids=["classify-12", "order-12", "pepin-14"])
    def test_chains_load_no_oracle(self, args):
        # only the divisor search calls oracle
        assert "fermatlab.oracle" not in loaded(probe("allow", *args))

    def test_order_without_alpha_loads_no_primality(self):
        # a known factor of F_12 proves 5's order is not a power of two
        assert "fermatlab.primality" \
            not in loaded(probe("allow", "order", "12", "--base", "5"))

    @pytest.mark.parametrize("args", [
        (), ("pepin", "14"),
        ("pepin", "8", "--checkpoint-dir", "{tmp}", "--stop-after", "5"),
        ("classify", "12", "--base", "7"), ("order", "12", "--base", "5"),
        ("factor", "9", "--k-max", "100"), ("audit", "--n-range", "5..8"),
        ("audit", "--n-range", "10..12", "--bases", "2,3,5,7"),
        ("selftest",)],
        ids=["import", "pepin-14", "pepin-checkpoint", "classify-12",
             "order-12", "factor-9", "audit-5-8", "audit-pooled",
             "selftest"])
    def test_no_command_loads_dataclasses(self, args, tmp_path):
        args = [arg.format(tmp=tmp_path) for arg in args]
        assert "dataclasses" not in loaded(probe("allow", *args))
