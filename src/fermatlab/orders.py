"""Multiplicative orders modulo F_n.

Whenever base^(F_n - 1) = 1 the order of the base divides 2^(2^n) and
is therefore itself a power of two, 2^alpha.  order_alpha finds alpha
by squaring upward, block by block, to the first residue equal to 1,
which is minimal by construction.  If 2^n squarings never reach 1 the
order has an odd part and the marker result NotTotallyEven is
returned.  A known factor p of F_n often proves that with no chain:
base^(2^(2^n)) = 1 mod F_n implies it mod p, which builtin pow checks.

On a composite F_n whose congruence holds, alpha is provably at most
2^n - 2; order_alpha records whether that bound held in bound_satisfied
so sweeps can assert it across a whole range.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .arith import FermatResidue, square_blocks
from .factors import proven_factors
from .primality import fermat_is_prime, require_coprime

ORDER_BOUND_SLACK = 2  # composite + congruence: alpha <= 2^n - 2


class OrderResult(NamedTuple):
    """Order of `base` mod F_n expressed through its exponent alpha.

    alpha = k means ord(base) = 2^k exactly.  alpha = None is the
    NotTotallyEven marker: no power-of-two exponent up to 2^(2^n)
    reaches 1, so the order does not divide F_n - 1 at all (the base
    therefore also fails the Fermat congruence).  bound_satisfied is
    only set when F_n is composite and alpha is numeric.
    """

    n: int
    base: int
    alpha: Optional[int]
    bound_satisfied: Optional[bool] = None

    @property
    def squarings_used(self) -> int:
        """The chain index reached, alpha or 2^n, not the squarings done:
        order_alpha squares up to the end of alpha's block and searches
        it again, and a NotTotallyEven proven by a known factor of F_n
        squares nothing."""
        return 1 << self.n if self.alpha is None else self.alpha

    @property
    def not_totally_even(self) -> bool:
        return self.alpha is None

    @property
    def order(self) -> Optional[int]:
        if self.alpha is None:
            return None
        return 1 << self.alpha


def order_alpha(n: int, base: int) -> OrderResult:
    """Least alpha with base^(2^alpha) = 1 mod F_n, or NotTotallyEven.

    A known factor p of F_n with base^(2^(2^n)) != 1 mod p proves
    NotTotallyEven, and then no chain runs.  Otherwise the chain of at
    most 2^n squarings runs on arith.square_blocks with a stop at each
    power of two, so its blocks double from 1 up to arith.CHAIN_BLOCK
    and then keep that length, and only each block's end is tested for
    1; the base itself is the chain's entry at index 0.  The block that
    ends on 1 is searched by halving (_first_one).  That is exact
    because 1 is a fixed point of squaring: every entry past alpha is 1
    and none before it is.  So a found alpha below CHAIN_BLOCK costs
    under 3 * alpha squarings, and any alpha at most 2 * CHAIN_BLOCK
    more than alpha, in at most log2(CHAIN_BLOCK) chain calls after its
    block.  Each block's end, and each residue the search reads, is
    checked against the known factors of F_n by arith.square_blocks,
    which raises CheckpointError for a wrong one.
    """
    start = require_coprime(n, base)
    for p in proven_factors(n):
        if pow(base, pow(2, 1 << n, p - 1), p) != 1:
            return OrderResult(n, base, None)
    if start.is_one:
        return OrderResult(n, base, 0, _bound(n, 0))
    index, x = 0, start
    for end, (y,) in square_blocks([base], [start], 0,
                                   [1 << k for k in range(n + 1)]):
        if y.is_one:
            alpha = _first_one(base, x, index, end - index)
            return OrderResult(n, base, alpha, _bound(n, alpha))
        index, x = end, y
    return OrderResult(n, base, None)


def _first_one(base: int, x: FermatResidue, index: int, span: int) -> int:
    """The index of the first 1 in the chain of base, given x at index,
    which is not 1, and 1 at index + span.

    Each call squares half the span from its lower end and keeps the
    half that holds the first 1: at most ceil(log2(span)) calls and
    span - 1 squarings.  Each call ends one lone-chain block of
    arith.square_blocks, so each residue it reads is checked there
    against the known factors of F_n: a fault that lands on 1 early
    fails at that 1, and one that misses a 1 fails where it is read.
    """
    while span > 1:
        half = span // 2
        # inside one block of square_blocks, so in one call
        _, (mid,) = next(square_blocks([base], [x], index, [index + half]))
        if mid.is_one:
            span = half
        else:
            x, index, span = mid, index + half, span - half
    return index + 1


def _bound(n: int, alpha: int) -> Optional[bool]:
    if fermat_is_prime(n):
        return None
    return alpha <= (1 << n) - ORDER_BOUND_SLACK
