"""Multiplicative orders modulo F_n.

Whenever base^(F_n - 1) = 1 the order of the base divides 2^(2^n) and
is therefore itself a power of two, 2^alpha.  order_alpha finds alpha
by squaring upward, block by block, to the first block that ends on 1,
and then in one more pass over that block, one squaring at a time, to
the first residue equal to 1, which is minimal by construction; the
pass costs fewer than CHAIN_BLOCK squarings and calls.  If 2^n
squarings never reach 1 the order has an odd part and the marker
result NotTotallyEven is returned.  A known factor p of F_n often
proves that with no chain: base^(2^(2^n)) = 1 mod F_n implies it mod
p, which builtin pow checks.

On a composite F_n whose congruence holds, alpha is provably at most
2^n - 2; order_alpha records whether that bound held in bound_satisfied
so sweeps can assert it across a whole range.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .arith import require_coprime, square_blocks
from .factors import proven_factors

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
        order_alpha squares up to the end of alpha's block and then
        again from its start up to alpha, and a NotTotallyEven proven
        by a known factor of F_n squares nothing."""
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
    ends on 1 is squared again in one more pass of square_blocks from
    its start, with a stop at every index before its end, and the pass
    is left at the first 1; alpha is the block's end if none is 1.
    That is exact because 1 is a fixed point of squaring: every entry
    past alpha is 1 and none before it is.  The pass makes fewer than
    CHAIN_BLOCK calls of one squaring and squares nothing past alpha,
    so a found alpha costs fewer than alpha + CHAIN_BLOCK squarings,
    and under 3 * alpha below CHAIN_BLOCK.  Each block's end, and each
    residue of the pass, is checked against the known factors of F_n
    by square_blocks, which raises CheckpointError for a wrong one.
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
            # the pass need not square up to end, which is 1
            alpha = next((i for i, (z,) in square_blocks(
                [base], [x], index, range(index + 1, end)) if z.is_one), end)
            return OrderResult(n, base, alpha, _bound(n, alpha))
        index, x = end, y
    return OrderResult(n, base, None)


def _bound(n: int, alpha: int) -> Optional[bool]:
    # primality loads only once an alpha is found
    from .primality import fermat_is_prime
    if fermat_is_prime(n):
        return None
    return alpha <= (1 << n) - ORDER_BOUND_SLACK
