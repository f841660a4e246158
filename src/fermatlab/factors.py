"""Divisor search for F_n among candidates of the form k * 2^(n+2) + 1.

Every prime divisor of F_n (n >= 2) has that shape, so scanning k is a
complete search strategy up to the scanned bound.  For a composite F_n
the k of a prime divisor is moreover > 1 and not a power of two; a
found prime divisor violating that would be a major event, which is why
validate_divisor_form exists as its own checkable step.

The divisibility test never touches the fold-reduction path: p is tiny
next to F_n, so 2^(2^n) mod p is computed by builtin pow modulo p.
The published factors (KNOWN_FACTORS) check chain residues the same
way (check_known_factor), prove F_n composite (proven_factors), and
refute the Fermat congruence of most bases (refutes_congruence).
"""

from __future__ import annotations

from functools import cache
from itertools import compress
from math import isqrt
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .arith import check_chain_index, fermat_value
from .errors import CheckpointError, IndexOutOfRangeError, \
    NotADivisorError

_PRIMALITY_EXACT_BELOW = 1 << 64
# Odd primes below this bound strike k before any test (lucas_search).
# A larger bound strikes more k but costs more per search: the nine
# factor-scan queries (n = 9..23, k_max 1e4..4e4), each with the prime
# table built afresh as in a new process, took a median of 169, 161, 155,
# 153, 156 and 195 ms at 2^10, 2^11, 2^12, 2^13, 2^14 and 2^16
# (7 rounds; 2 cores, Python 3.11).  primality.default_audit_bases takes
# the primes up to 229 from the same table.
_SIEVE_BOUND = 1 << 12
# k values sieved at a time, so memory does not grow with k_max.
_SIEVE_SEGMENT = 1 << 16

# Every published prime factor of F_n, smallest first, for each n <= 23
# at which F_n has one (F_20 has none).  A residue x of a chain of
# base^(2^i) values must satisfy x = base^(2^i mod (p - 1)) (mod p) for
# each of them, which check_known_factor tests with builtin pow.
KNOWN_FACTORS: Dict[int, Tuple[int, ...]] = {
    5: (641, 6700417),
    6: (274177, 67280421310721),
    7: (59649589127497217, 5704689200685129054721),
    8: (1238926361552897,),
    9: (2424833, 7455602825647884208337395736200454918783366342657),
    10: (45592577, 6487031809, 4659775785220018543264560743076778192897),
    11: (319489, 974849, 167988556341760475137, 3560841906445833920513),
    12: (114689, 26017793, 63766529, 190274191361, 1256132134125569,
         568630647535356955169033410940867804839360742060818433),
    13: (2710954639361, 2663848877152141313, 3603109844542291969,
         319546020820551643220672513),
    14: (116928085873074369829035993834596371340386703423373313,),
    15: (1214251009, 2327042503868417, 168768817029516972383024127016961),
    16: (825753601, 188981757975021318420037633),
    17: (31065037602817,
         7751061099802522589358967058392886922693580423169),
    18: (13631489, 81274690703860512587777),
    19: (70525124609, 646730219521, 37590055514133754286524446080499713),
    21: (4485296422913,),
    22: (64658705994591851009055774868504577,),
    23: (167772161,),
}


def check_known_factor(n: int, base: int, index: int, residue: int,
                       what: str) -> None:
    """Raise CheckpointError, naming the residue `what`, unless it is
    base^(2^index) modulo every known factor of F_n.

    A fault v2(p - 1) or more squarings back has left an error modulo p
    of odd order, which is 1 with probability about 1/k_odd, where
    p - 1 = k_odd * 2^v2(p - 1); the check misses the fault only where
    that happens for every p.  That is for a random error.  An error
    of order 2^a modulo every known factor is gone a squarings later,
    so no check after that sees it: adding 1 to a residue that is 1
    modulo every p (the chain of a base that no factor refutes, from
    index max v2(p - 1) on) leaves 2, of order 2^(n+1), and a check
    more than n + 1 squarings on passes.
    """
    for p in KNOWN_FACTORS.get(n, ()):
        if residue % p != pow(base, pow(2, index, p - 1), p):
            raise CheckpointError(
                f"{what} is not base^(2^{index}) modulo "
                f"the known factor {p} of F_{n}")


def proven_factors(n: int) -> Tuple[int, ...]:
    """The known factors of F_n that divides_fermat confirms.

    Each one proves F_n composite in n squarings modulo p, where the
    Pepin chain takes 2^n - 1 squarings modulo F_n to say the same.
    Empty where F_n has no known factor (n < 5, n = 20, n > 23).
    """
    return tuple(p for p in KNOWN_FACTORS.get(n, ())
                 if divides_fermat(p, n))


def refutes_congruence(n: int, base: int, primes: Sequence[int]) -> bool:
    """Whether one of primes, the proven_factors(n) of a caller that
    computes them once for many bases, has base^(2^(2^n)) != 1 mod p.

    base^(F_n - 1) = 1 mod F_n implies it modulo each factor p, so such
    a p proves that the Fermat congruence fails, and with it that
    base^((F_n - 1)/4) is neither 1 nor -1.  Builtin pow decides it
    modulo p, the exponent reduced mod p - 1, where a chain would take
    2^n squarings modulo F_n.
    """
    return any(pow(base, pow(2, 1 << n, p - 1), p) != 1 for p in primes)


# The fields; a NamedTuple cannot define __new__, so the subclass checks.
class _Candidate(NamedTuple):
    n: int
    k: int
    prime: Optional[bool]


class CandidateDivisor(_Candidate):
    """One candidate p = k * 2^(n+2) + 1, held as (n, k) and its primality.

    p and the k-form flag are derived from (n, k), so they cannot
    disagree with it.  Divisibility is not stored: validate_divisor_form
    and cofactor check it.  prime is None when p is too large for the
    exact primality check, in which case a divisor is still a divisor
    but carries no primality claim.
    """

    __slots__ = ()

    def __new__(cls, n: int, k: int, prime: Optional[bool] = None):
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        return tuple.__new__(cls, (n, k, prime))

    @classmethod
    def _make(cls, values):
        # so that _replace checks too
        return cls(*values)

    @property
    def p(self) -> int:
        return (self.k << (self.n + 2)) + 1

    @property
    def k_is_one_or_power_of_two(self) -> bool:
        return (self.k & (self.k - 1)) == 0


def divides_fermat(p: int, n: int) -> bool:
    """Whether p divides F_n, via 2^(2^n) = -1 (mod p).

    n squarings mod p, never F_n itself, so the index cap does not apply.
    """
    if n < 0:
        raise IndexOutOfRangeError(f"Fermat index must be >= 0, got {n}")
    if p <= 1 or p % 2 == 0:
        raise ValueError(f"p must be odd and > 1, got {p}")
    return pow(2, 1 << n, p) == p - 1


def lucas_search(n: int, k_max: int,
                 prime_filter: bool = False) -> List[CandidateDivisor]:
    """Scan k = 1..k_max for proper divisors p = k * 2^(n+2) + 1 of F_n.

    prime_filter drops divisors that fail the (exact below 2^64)
    primality check.  Off by default: composite p can divide F_n too,
    being products of prime divisors of the same shape, and the
    complete scan is the more conservative default.  Candidates with
    p >= F_n, i.e. k >= 2^(2^n - n - 2), are skipped either way; F_n
    trivially divides itself and reporting it would say nothing.

    The scan sieves k before testing.  For n >= 2 every prime factor of
    every divisor of F_n is = 1 mod 2^(n+2), so it is > 2^(n+2), and
    every candidate p is > 2^(n+2) as well.  So if an odd prime
    q <= 2^(n+2) divides p, p is composite and cannot divide F_n.
    Striking such k loses no divisor, prime or composite.  The
    survivors are tested for divisibility, and only the divisors found
    are tested for primality; the filter then drops the composite ones
    below 2^64, which gives the same list as filtering first.
    """
    # the one caller of oracle outside selftest, so only factor loads it
    from .oracle import is_probable_prime
    check_chain_index(n)
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    shift = n + 2
    k_end = min(k_max, (1 << ((1 << n) - shift)) - 1) + 1
    roots = _sieve_roots(n)
    found: List[CandidateDivisor] = []
    for k_lo in range(1, k_end, _SIEVE_SEGMENT):
        size = min(_SIEVE_SEGMENT, k_end - k_lo)
        for k in compress(range(k_lo, k_lo + size),
                          _strike(roots, k_lo, size)):
            p = (k << shift) + 1
            if not divides_fermat(p, n):
                continue
            prime = is_probable_prime(p) if p < _PRIMALITY_EXACT_BELOW \
                else None
            if prime_filter and prime is False:
                continue
            found.append(CandidateDivisor(n, k, prime))
    return found


def _sieve_roots(n: int) -> List[Tuple[int, int]]:
    """(q, r) per odd prime q <= 2^(n+2) in the table.

    q divides p = k * 2^(n+2) + 1 exactly when k = r (mod q).
    """
    step = 1 << (n + 2)
    return [(q, -pow(step, -1, q) % q)
            for q in _odd_primes() if q <= step]


def _strike(roots: List[Tuple[int, int]], k_lo: int, size: int) -> bytearray:
    """Flags for k = k_lo..k_lo+size-1, zero where some root's q divides p."""
    flags = bytearray(b"\x01") * size
    for q, r in roots:
        start = (r - k_lo) % q
        if start < size:
            flags[start::q] = bytes((size - 1 - start) // q + 1)
    return flags


@cache
def _odd_primes() -> Tuple[int, ...]:
    """The odd primes below _SIEVE_BOUND, built on first use."""
    is_prime = bytearray(b"\x01") * _SIEVE_BOUND
    for i in range(2, isqrt(_SIEVE_BOUND - 1) + 1):
        if is_prime[i]:
            is_prime[i * i::i] = bytes(len(range(i * i, _SIEVE_BOUND, i)))
    return tuple(compress(range(3, _SIEVE_BOUND), is_prime[3:]))


def validate_divisor_form(d: CandidateDivisor) -> bool:
    """For a divisor of a composite F_n: is k > 1 and not a power of two?

    True is the only outcome theory allows for a prime divisor; False
    from a genuine prime divisor would be a counterexample and callers
    report it as a violation.  Composite divisors are not covered by
    the statement (their k can degenerate), so callers should only
    alarm on d.prime being True.  A p that does not divide F_n raises
    NotADivisorError; the check is divides_fermat, which never builds
    F_n, so it holds beyond the index cap too.
    """
    if not divides_fermat(d.p, d.n):
        raise NotADivisorError(
            f"p={d.p} does not divide F_{d.n}; nothing to validate")
    return not d.k_is_one_or_power_of_two


def cofactor(d: CandidateDivisor) -> int:
    """F_n / p, checked exact."""
    value = fermat_value(d.n)
    q, r = divmod(value, d.p)
    if r != 0:
        raise NotADivisorError(
            f"claimed divisor p={d.p} leaves remainder {r} on F_{d.n}")
    return q
