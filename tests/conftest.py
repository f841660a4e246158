"""Shared helpers: in-process CLI runner and schema validation."""

from __future__ import annotations

import io
import json
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from importlib import resources
from math import gcd, prod
from typing import List

import pytest
from hypothesis import HealthCheck, settings

import fermatlab
from fermatlab import arith, factors, primality
from fermatlab.cli import main

# big-int cases vary wildly in size; wall-clock deadlines just add noise
settings.register_profile(
    "fermatlab",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("fermatlab")


# the same with and without numpy: the crossover and batch groups run
# either way
SELFTEST_CHECKS = 48


def v2(m: int) -> int:
    """The exponent of 2 in m > 0."""
    return (m & -m).bit_length() - 1


# (n, p, v2(p - 1)): the smallest known prime factor p of F_n and the
# exponent alpha of the order of pseudoprime_base(n, p).  n = 14 runs on
# the FFT kernel, with a base of more than 4300 decimal digits.
KNOWN_FACTORS = [(n, factors.KNOWN_FACTORS[n][0],
                  v2(factors.KNOWN_FACTORS[n][0] - 1))
                 for n in (5, 6, 12, 14)]


def _two_power_generator(p: int) -> int:
    """An element of order exactly 2^v2(p - 1) modulo the prime p."""
    h = next(h for h in range(2, p) if pow(h, (p - 1) // 2, p) == p - 1)
    # h is a non-residue, so g^(2^(v - 1)) = -1
    return pow(h, (p - 1) >> v2(p - 1), p)


def pseudoprime_base(n: int, p: int) -> int:
    """A base to which F_n is a Fermat pseudoprime, from one factor p.

    b = g (mod p), where g has order exactly 2^v2(p - 1) modulo p, and
    b = 1 (mod F_n / p).  So ord(b) mod F_n is 2^v2(p - 1), which divides
    F_n - 1 = 2^(2^n).  Built with builtin pow only, apart from the
    library under test.
    """
    rest = ((1 << (1 << n)) + 1) // p
    g = _two_power_generator(p)
    return 1 + rest * ((g - 1) * pow(rest, -1, p) % p)


# n = 5..11, where F_n is completely factored, and the exponent alpha of
# the order of full_crt_base(n): max v2(p - 1) over the prime factors.
FULL_CRT_ALPHAS = {5: 7, 6: 8, 7: 9, 8: 11, 9: 16, 10: 14, 11: 14}


def complete_factorisation(n: int) -> List[int]:
    """The prime factors of F_n, n = 5..11: factors.KNOWN_FACTORS[n] and
    the quotient they leave, which is 1 for n = 5..7 and a prime for
    n = 8..11."""
    rest = (1 << (1 << n)) + 1
    for p in factors.KNOWN_FACTORS[n]:
        rest //= p
    return [*factors.KNOWN_FACTORS[n], *([rest] if rest > 1 else [])]


def full_crt_base(n: int) -> int:
    """A base to which F_n is a Fermat pseudoprime, from all its factors.

    b = g_i (mod p_i) for every prime factor p_i, where g_i has order
    exactly 2^v2(p_i - 1) modulo p_i, combined by the Chinese remainder
    theorem (F_n is squarefree).  So ord(b) mod F_n is 2^max v2(p_i - 1),
    the largest a base of 2-power order can have.  Builtin pow only.
    """
    m = (1 << (1 << n)) + 1
    return sum(m // p * (_two_power_generator(p) * pow(m // p, -1, p) % p)
               for p in complete_factorisation(n)) % m


def unrefuted_bases(n: int, count: int) -> List[int]:
    """count bases coprime to F_n that are 1 modulo every known factor
    of F_n, so that no factor refutes their Fermat congruence
    (factors.refuted_bases) and an audit squares their chains."""
    step = prod(factors.KNOWN_FACTORS[n])
    bases = [1 + i * step for i in range(1, count + 1)]
    assert all(gcd(b, (1 << (1 << n)) + 1) == 1 for b in bases)
    return bases


def audit_violations(report) -> list:
    """The failed rules of every row of an audit report."""
    return [v for row in report.rows if row.verdict is not None
            for v in row.verdict.violations]


@pytest.fixture
def fresh_prime_cache(monkeypatch):
    """primality._PRIME_CACHE as at import, for the test: a test that
    breaks arith must not leave wrong verdicts behind.  Calling the
    fixture's value starts another fresh cache."""
    def fresh():
        monkeypatch.setattr(primality, "_PRIME_CACHE", {0: True, 1: True})
    fresh()
    return fresh


def spy_on_squarings(monkeypatch):
    """The count of every chain squared by an arith.mod_square_chains
    call, one entry per chain: every chain of the library is squared by
    arith.square_blocks, through mod_square_chains or, for a lone chain,
    through mod_square_chain, its batch of one."""
    counts = []
    real = arith.mod_square_chains

    def counting(residues, count):
        counts.extend([count] * len(residues))
        return real(residues, count)

    monkeypatch.setattr(arith, "mod_square_chains", counting)
    return counts


@dataclass(frozen=True)
class CliResult:
    code: int
    stdout: str
    stderr: str

    def json(self) -> dict:
        return json.loads(self.stdout)


def run_cli(*args: str) -> CliResult:
    """Drive cli.main in-process, capturing streams and exit code."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(list(args))
    except SystemExit as exc:  # argparse usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    return CliResult(code=code, stdout=out.getvalue(), stderr=err.getvalue())


def run_cli_subprocess(*args: str, env=None) -> subprocess.CompletedProcess:
    """The real thing: a fresh interpreter running the module entry point."""
    return subprocess.run(
        [sys.executable, "-m", "fermatlab", *args],
        capture_output=True, text=True, env=env, timeout=600)


def load_schema() -> dict:
    """The published schema, shipped as package data, for every record
    the CLI writes: a builder's record with elapsed_seconds added, but
    for selftest."""
    path = resources.files(fermatlab) / "schemas" / "cli_output.schema.json"
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="session")
def schema_validator():
    import jsonschema

    return jsonschema.Draft202012Validator(load_schema())


@pytest.fixture(scope="session")
def checkpoint_validator():
    import jsonschema

    schema = load_schema()
    sub = {
        "$schema": schema["$schema"],
        "$defs": schema["$defs"],
        "$ref": "#/$defs/checkpoint",
    }
    return jsonschema.Draft202012Validator(sub)
