"""Divisor search for F_n among candidates of the form k * 2^(n+2) + 1.

Every prime divisor of F_n (n >= 2) has that shape, so scanning k is a
complete search strategy up to the scanned bound.  For a composite F_n
the k of a prime divisor is moreover > 1 and not a power of two; a
found prime divisor violating that would be a major event, which is why
validate_divisor_form exists as its own checkable step.

The divisibility test never touches the fold-reduction path: p is tiny
next to F_n, so 2^(2^n) mod p is computed by builtin pow modulo p.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from .arith import check_index, fermat_value
from .errors import IndexBelowTwoError, NotADivisorError
from .oracle import is_probable_prime

_PRIMALITY_EXACT_BELOW = 1 << 64


def _is_power_of_two(k: int) -> bool:
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True, slots=True)
class CandidateDivisor:
    """One candidate p = k * 2^(n+2) + 1 and what the search learned.

    prime is None when p is too large for the exact primality check, in
    which case a divisor is still a divisor but carries no primality
    claim.
    """

    n: int
    k: int
    p: int
    divides: bool
    k_is_one_or_power_of_two: bool
    prime: Optional[bool] = None

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"k must be >= 1, got {self.k}")
        if self.p != self.k * (1 << (self.n + 2)) + 1:
            raise ValueError(
                f"p={self.p} is not k*2^(n+2)+1 for k={self.k}, n={self.n}")

    @classmethod
    def from_k(cls, n: int, k: int, divides: bool = False,
               prime: Optional[bool] = None) -> "CandidateDivisor":
        return cls(n=n, k=k, p=k * (1 << (n + 2)) + 1, divides=divides,
                   k_is_one_or_power_of_two=_is_power_of_two(k),
                   prime=prime)


def divides_fermat(p: int, n: int) -> bool:
    """Whether p divides F_n, via 2^(2^n) = -1 (mod p)."""
    check_index(n)
    if p <= 1 or p % 2 == 0:
        raise ValueError(f"p must be odd and > 1, got {p}")
    return pow(2, 1 << n, p) == p - 1


def lucas_search(n: int, k_max: int,
                 prime_filter: bool = False) -> List[CandidateDivisor]:
    """Scan k = 1..k_max for proper divisors p = k * 2^(n+2) + 1 of F_n.

    prime_filter skips candidate values of p that fail the (exact below
    2^64) primality check.  Off by default: composite p can divide F_n
    too, being products of prime divisors of the same shape, and the
    complete scan is the more conservative default.  Candidates with
    p >= F_n are skipped either way; F_n trivially divides itself and
    reporting it would say nothing.
    """
    check_index(n)
    if n < 2:
        raise IndexBelowTwoError(
            f"divisor search is defined for n >= 2, got n={n}")
    if k_max < 1:
        raise ValueError(f"k_max must be >= 1, got {k_max}")
    shift = n + 2
    limit = fermat_value(n)
    found: List[CandidateDivisor] = []
    for k in range(1, k_max + 1):
        p = (k << shift) + 1
        if p >= limit:
            break
        if prime_filter and p < _PRIMALITY_EXACT_BELOW \
                and not is_probable_prime(p):
            continue
        if divides_fermat(p, n):
            prime = is_probable_prime(p) if p < _PRIMALITY_EXACT_BELOW \
                else None
            found.append(CandidateDivisor.from_k(n, k, divides=True,
                                                 prime=prime))
    return found


def validate_divisor_form(d: CandidateDivisor) -> bool:
    """For a divisor of a composite F_n: is k > 1 and not a power of two?

    True is the only outcome theory allows for a prime divisor; False
    from a genuine prime divisor would be a counterexample and callers
    report it as a violation.  Composite divisors are not covered by
    the statement (their k can degenerate), so callers should only
    alarm on d.prime being True.
    """
    if not d.divides:
        raise NotADivisorError(
            f"p={d.p} does not divide F_{d.n}; nothing to validate")
    return d.k > 1 and not _is_power_of_two(d.k)


def cofactor(d: CandidateDivisor) -> int:
    """F_n / p, checked exact."""
    if not d.divides:
        raise NotADivisorError(
            f"p={d.p} does not divide F_{d.n}; no cofactor")
    value = fermat_value(d.n)
    q, r = divmod(value, d.p)
    if r != 0:
        raise NotADivisorError(
            f"claimed divisor p={d.p} leaves remainder {r} on F_{d.n}")
    return q
