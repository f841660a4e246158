"""Independent slow-path arithmetic used to cross-check the fold route.

Everything here reduces with builtin division (`%`, `divmod`, `pow`) or
with repeated shift-subtract, never with the fold identity from arith.py.
When a selftest or an equivalence suite compares the two routes it is
comparing genuinely different algorithms, which is the point.

These functions are deliberately unoptimised.  naive_order walks every
power one multiplication at a time; trial_division tries every candidate
up to the bound.  Keep them that way: their value is being obviously
correct, not fast.
"""

from __future__ import annotations

from math import gcd, isqrt
from typing import NamedTuple, Optional


def naive_mod(x: int, m: int) -> int:
    """x mod m via builtin division.  The reference for reduce_fold."""
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    return x % m


def shift_subtract_mod(x: int, m: int) -> int:
    """x mod m by binary long division: align m, subtract, shift down.

    A second independent route (no `%`, no fold identity) so that the two
    fast paths can be arbitrated when they disagree.
    """
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    if x < m:
        return x
    shift = x.bit_length() - m.bit_length()
    mm = m << shift
    while shift >= 0:
        if x >= mm:
            x -= mm
        mm >>= 1
        shift -= 1
    return x


def naive_pow(a: int, e: int, m: int) -> int:
    """a^e mod m via builtin pow.  Reference for the squaring chains."""
    if m <= 0:
        raise ValueError(f"modulus must be positive, got {m}")
    if e < 0:
        raise ValueError(f"exponent must be >= 0, got {e}")
    return pow(a, e, m)


def naive_order(a: int, m: int, limit: Optional[int] = None) -> Optional[int]:
    """Multiplicative order of a mod m by stepping through powers.

    Returns the least k >= 1 with a^k == 1 (mod m), or None if no such k
    is found within `limit` steps (default: m - 1, which always suffices
    when gcd(a, m) == 1).
    """
    if m <= 1:
        raise ValueError(f"modulus must be >= 2, got {m}")
    a = a % m
    if gcd(a, m) != 1:
        raise ValueError(f"order undefined: gcd({a}, {m}) != 1")
    if limit is None:
        limit = m - 1
    v = 1
    for k in range(1, limit + 1):
        v = (v * a) % m
        if v == 1:
            return k
    return None


def trial_division(m: int, bound: Optional[int] = None) -> Optional[int]:
    """Smallest prime factor of m found by trying 2, 3, 5, 7, ... up to bound.

    Returns None if no factor <= min(bound, isqrt(m)) exists; with the
    default bound (isqrt(m)) a None therefore certifies m prime.
    """
    if m < 2:
        raise ValueError(f"expected an integer >= 2, got {m}")
    cap = isqrt(m)
    if bound is not None:
        cap = min(cap, bound)
    if 2 <= cap and m % 2 == 0:
        return 2
    d = 3
    while d <= cap:
        if m % d == 0:
            return d
        d += 2
    return None


# Strong-pseudoprime test to these bases is deterministic below 2^64.
_MR_BASES_64 = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_probable_prime(m: int) -> bool:
    """Miller-Rabin with fixed bases; exact for m < 2^64.

    Used to certify cofactors in the divisor-search fixtures without
    trial-dividing seven-digit numbers character by character.
    """
    if m < 2:
        return False
    for p in _MR_BASES_64:
        if m == p:
            return True
        if m % p == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES_64:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = (x * x) % m
            if x == m - 1:
                break
        else:
            return False
    return True


class OracleReport(NamedTuple):
    """One cross-check: what was compared, both values, and the verdict.

    `check` names the comparison (e.g. "reduce-fold-vs-divmod"), `subject`
    pins down the inputs, and on disagreement both sides are kept so the
    failure is reproducible from the report alone.
    """

    check: str
    subject: str
    agreed: bool
    expected: Optional[str] = None
    actual: Optional[str] = None

    def describe(self) -> str:
        status = "ok" if self.agreed else "MISMATCH"
        line = f"{status}: {self.check} [{self.subject}]"
        if not self.agreed:
            line += f" expected={self.expected} actual={self.actual}"
        return line
