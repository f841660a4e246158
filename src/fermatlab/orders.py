"""Multiplicative orders modulo F_n.

Whenever base^(F_n - 1) = 1 the order of the base divides 2^(2^n) and
is therefore itself a power of two, 2^alpha.  order_alpha finds alpha
by squaring upward, block by block, to the first residue equal to 1,
which is minimal by construction.  If 2^n squarings never reach 1 the
order has an odd part and the marker result NotTotallyEven is
returned.

On a composite F_n whose congruence holds, alpha is provably at most
2^n - 2; order_alpha records whether that bound held in bound_satisfied
so sweeps can assert it across a whole range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .arith import CHAIN_BLOCK, mod_square_chain
from .primality import fermat_is_prime, require_coprime

ORDER_BOUND_SLACK = 2  # composite + congruence: alpha <= 2^n - 2


@dataclass(frozen=True, slots=True)
class OrderResult:
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
        order_alpha squares up to the end of alpha's block and walks back."""
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

    The chain of at most 2^n squarings runs in blocks of CHAIN_BLOCK, and
    only each block's end is tested for 1; the base itself is the chain's
    entry at index 0.  A block that ends on 1 is walked again one
    squaring at a time from its start, and the first 1 is alpha.  That
    is exact because 1 is a fixed point of squaring: every entry past
    alpha is 1 and none before it is.  A found alpha costs at most alpha
    + CHAIN_BLOCK squarings, up to CHAIN_BLOCK of them in single-squaring
    calls that walk its block again.
    """
    start = require_coprime(n, base)
    limit = 1 << n
    index = 0
    while index < limit:
        step = min(CHAIN_BLOCK, limit - index)
        end = mod_square_chain(start, step)
        if end.is_one:
            while not start.is_one:
                start = mod_square_chain(start, 1)
                index += 1
            return OrderResult(n, base, index, _bound(n, index))
        start, index = end, index + step
    return OrderResult(n, base, None)


def _bound(n: int, alpha: int) -> Optional[bool]:
    if fermat_is_prime(n):
        return None
    return alpha <= (1 << n) - ORDER_BOUND_SLACK
