"""Arithmetic modulo Fermat numbers F_n = 2^(2^n) + 1.

Residues live in the inclusive range [0, 2^(2^n)]; the top value 2^(2^n)
equals F_n - 1 and is the natural representative of -1.  Reduction never
divides: it uses the fold identity 2^(2^n) == -1 (mod F_n), i.e. the
alternating sum of base-2^(2^n) digits, so the hot path is shifts, masks
and adds.  The division-based route lives in oracle.py and shares nothing
with this module on purpose.

require_coprime turns a base into the entry at index 0 of its chain,
refusing a negative base or one that shares a factor with F_n.

Exponents of interest here are all powers of two, so they are never
materialised as integers: callers pass a squaring count instead
(mod_square_chain).  (F_n - 1)/4 is "2^n - 2 squarings", not a number.

mod_square_chains squares one or more residues at one index; it is the
one routine that squares modulo F_n, and mod_square_chain is its batch
of one.  It hands the whole call to one backend, picked from n and the
number of chains (chain_backend): the negacyclic FFT of _fft.py, which
squares a batch together, from n = FFT_MIN_INDEX on and for at least
FFT_MIN_BATCH[n] chains below it, when numpy imports; otherwise the
integer multiply here, chain by chain.  When the FFT's roundoff guard
refuses a squaring, the FFT refuses the whole call, and every chain of
it is squared again here on the integer multiply, with no second FFT
attempt.  A refused block of one chain costs its FFT squarings up to
the refusal plus CHAIN_BLOCK on integers: 5.5-15 ms at n = 14 against
2.9-4.6 ms on the FFT, and 0.48-0.75 s at n = 18 against 28-33 ms
(best of 7 and of 3, in two sittings on 2 cores).  The guard has not
fired on a real chain.  It only squares.

square_blocks drives every chain of the library: it advances one or
more chains from an index through the stops its caller names, in
squaring calls that end at each stop and at each multiple of
CHAIN_BLOCK, and yields between calls, where the caller acts (reads a
tap, tests for 1, writes a checkpoint) or leaves.  Chains that have
all reached 1 square no further, since every later entry is 1.  It
yields only residues it has checked against the known factors of F_n
(factors.check_known_factor): a lone chain at every block end and
stop, a batch at its stops only.
One check cost 0.015 ms against 0.049 ms for a block of 64 squarings
at n = 8, 0.082 vs 1.19 ms at n = 12, 0.062 vs 5.3 ms at n = 14, 0.29
vs 24 ms at n = 18 and 4.2 vs 739 ms at n = 22: about 1% from n = 14
up.
"""

from __future__ import annotations

import functools
import os
from math import gcd
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .errors import BaseNotCoprimeError, IndexBelowTwoError, \
    IndexOutOfRangeError, ModulusMismatchError

DEFAULT_MAX_INDEX = 24
MAX_INDEX_ENV = "FERMAT_LAB_MAX_N"

# Smallest index whose chains run on the FFT backend: per squaring it
# took 0.69x the time of the integer multiply at n=14 and 1.3x at n=13,
# and its share falls as n grows (table in CHANGES.md).
FFT_MIN_INDEX = 14

# Below FFT_MIN_INDEX, the least number B of chains at one index that
# the FFT squares together faster than the integer multiply squares
# them one after the other.  Time per chain and squaring of a batch of
# B on the FFT over that of one chain on integers, from medians of 9
# interleaved runs of 128-256 squarings, in 2-3 runs on 2 cores:
#
#   B     n = 10     11          12          13
#   1     -          -           3.6-4.6     1.3-1.5
#   2     -          -           1.9         0.77-0.89
#   4     -          -           1.1-1.3     0.45-0.53
#   6     -          -           0.87-0.88   -
#   8     -          -           0.60-0.74   0.30-0.34
#   16    -          1.1-1.4     -           -
#   25    1.9        0.9-1.2     0.43-0.45   -
#   32    -          0.91-1.04   -           -
#   50    1.2-1.7    0.62-0.86   -           -
#
# A whole audit at n = 12 over 50 bases that no known factor refutes,
# its chains one batch in one process, took 0.84 s against 2.30 s on
# integers, and at n = 11 0.24 s against 0.29 s (medians of 5, numpy
# loaded, 2 cores).
FFT_MIN_BATCH = {11: 50, 12: 8, 13: 2}

# The longest squaring call of square_blocks, which also ends
# its calls at the multiples of CHAIN_BLOCK.  One call's own cost
# (backend choice, digit conversions, residue) against that of 64
# squarings, best of 5-7 on 2 cores, in two sessions: 3 us vs 38 us at
# n = 8, 3 us vs 0.68 ms at n = 12, 21-40 us vs 4.1-8.0 ms at n = 14,
# 0.43 ms vs 69 ms at n = 18 and 1.5 ms vs 274 ms at n = 20.  So 8% of
# a block at n = 8 and about 1% from n = 12 for one chain.  A batch of
# 25 at n = 12 costs 0.18 ms vs 6.6 ms (2.7%); building its 25
# FermatResidue is 40 us of that, the digit conversions 100 us.
CHAIN_BLOCK = 64

_HEX_DIGITS = b"0123456789abcdef"


def max_index() -> int:
    """Largest allowed Fermat index; FERMAT_LAB_MAX_N overrides the default.

    The limit is a guard against accidentally starting runs that need
    megabytes per residue and billions of limb operations, not a claim about
    what the arithmetic supports.
    """
    raw = os.environ.get(MAX_INDEX_ENV)
    if raw is None:
        return DEFAULT_MAX_INDEX
    try:
        value = int(raw)
    except ValueError:
        raise IndexOutOfRangeError(
            f"{MAX_INDEX_ENV} must be an integer, got {raw!r}") from None
    if value < 0:
        raise IndexOutOfRangeError(f"{MAX_INDEX_ENV} must be >= 0, got {value}")
    return value


def check_index(n: int) -> int:
    if n < 0 or n > max_index():
        raise IndexOutOfRangeError(
            f"Fermat index must be in 0..{max_index()}, got {n}")
    return n


def check_chain_index(n: int) -> None:
    """check_index, then n >= 2, where (F_n - 1)/4 is a power of two."""
    check_index(n)
    if n < 2:
        raise IndexBelowTwoError(f"Fermat index must be >= 2, got {n}")


def fermat_value(n: int) -> int:
    """The Fermat number F_n = 2^(2^n) + 1."""
    check_index(n)
    return (1 << (1 << n)) + 1


def to_hex(x: int) -> str:
    """Canonical text form of a natural number: lowercase hex, no prefix.

    Through bytes, not format(x, "x"), which took 5x as long: 268 vs 51
    us at 2^18 bits, 9.4 vs 1.7 ms at 2^23."""
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    text = x.to_bytes((x.bit_length() + 7) // 8, "big").hex()
    return text[1:] if text[:1] == "0" else text or "0"


def from_hex(text: str) -> int:
    """The number that to_hex writes as text; leading zeros are allowed.

    Once text is ASCII, its bytes are its characters, and deleting the
    hex digits from them is the check: 32 us at 2^16 digits, where a set
    of the characters took 950 us."""
    if not text or not text.isascii() \
            or text.encode().translate(None, _HEX_DIGITS):
        raise ValueError(f"not a lowercase hex string: {text!r}")
    return int(text, 16)


# The fields; a NamedTuple cannot define __new__, so the subclass checks.
class _Residue(NamedTuple):
    n: int
    value: int


class FermatResidue(_Residue):
    """Canonical residue modulo F_n, with value in [0, 2^(2^n)] inclusive.

    The range is exactly the complete residue system 0..F_n-1; keeping the
    upper end inclusive just makes -1 the easy-to-spot value 2^(2^n).
    Instances are immutable and safe to share across threads.
    """

    __slots__ = ()

    def __new__(cls, n: int, value: int):
        check_index(n)
        if not 0 <= value <= (1 << (1 << n)):
            raise ValueError(f"residue value out of range for F_{n}")
        return tuple.__new__(cls, (n, value))

    @classmethod
    def _make(cls, values):
        # so that _replace checks too
        return cls(*values)

    @property
    def is_one(self) -> bool:
        return self.value == 1

    @property
    def is_minus_one(self) -> bool:
        return self.value == (1 << (1 << self.n))

    def to_hex(self) -> str:
        return to_hex(self.value)


def _fold(x: int, width: int, top: int, mask: int) -> int:
    """Reduce nonnegative x into [0, top] by alternating-digit folds.

    width = 2^n bits per digit, top = 2^(2^n), mask = top - 1.  Each pass
    replaces x by d_0 - d_1 + d_2 - ... in base 2^width; a sign flip is
    folded back in at the end as x -> F_n - x.  No division anywhere.
    """
    negate = False
    while x > top:
        pos = 0
        neg = 0
        even = True
        while x:
            if even:
                pos += x & mask
            else:
                neg += x & mask
            x >>= width
            even = not even
        if pos >= neg:
            x = pos - neg
        else:
            x = neg - pos
            negate = not negate
    if negate and x:
        x = top + 1 - x
    return x


def _mulmod(x: int, y: int, width: int, top: int, mask: int) -> int:
    # x, y in [0, top], so p <= 2^(2*width) and p >> width <= top: the
    # fold p mod 2^width - p >> width lies in [-top, top), and a single
    # conditional add finishes the reduction (x = y = top gives 1).
    p = x * y
    s = (p & mask) - (p >> width)
    if s < 0:
        s += top + 1
    return s


def reduce_fold(x: int, n: int) -> FermatResidue:
    """x mod F_n by fold reduction (alternating base-2^(2^n) digit sums)."""
    check_index(n)
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    width = 1 << n
    top = 1 << width
    return FermatResidue(n, _fold(x, width, top, top - 1))


def require_coprime(n: int, base: int) -> FermatResidue:
    """Reduce base mod F_n, rejecting non-coprime bases.

    The error carries the gcd instead of hiding it: a proper factor of
    F_n, or F_n itself for a base of 0 modulo F_n.  The message writes
    the base and a proper factor in hex: from n = 14 on they can pass
    the cap on int-to-decimal conversion (4300 digits).  It leaves F_n
    out, and the base with it, since F_24 alone is 4 MB of hex.
    """
    check_index(n)
    _check_base(base)
    f = fermat_value(n)
    g = gcd(base, f)
    if g == f:
        raise BaseNotCoprimeError(f"base is a multiple of F_{n}", g)
    if g != 1:
        raise BaseNotCoprimeError(
            f"base 0x{base:x} shares factor 0x{g:x} with F_{n}", g)
    return reduce_fold(base, n)


def _check_base(base: int) -> None:
    if base < 0:
        raise ValueError(f"base must be >= 0, got {base}")


def mod_mul(a: FermatResidue, b: FermatResidue) -> FermatResidue:
    """(a * b) mod F_n for two residues sharing the same index."""
    if a.n != b.n:
        raise ModulusMismatchError(
            f"cannot multiply residues mod F_{a.n} and mod F_{b.n}")
    width = 1 << a.n
    top = 1 << width
    return FermatResidue(a.n, _mulmod(a.value, b.value, width, top, top - 1))


@functools.cache
def _fft_backend():
    """The FFT squaring module, or None without numpy >= 2.0."""
    try:
        from . import _fft
    except ModuleNotFoundError as err:
        if err.name != "numpy":
            raise
        return None
    return _fft


def chain_backend(n: int, batch: int):
    """The FFT squaring module when it squares `batch` chains at index n
    together faster than the integer multiply squares them one by one
    (FFT_MIN_INDEX, FFT_MIN_BATCH) and numpy >= 2.0 imports, else None.
    """
    if n >= FFT_MIN_INDEX \
            or n in FFT_MIN_BATCH and batch >= FFT_MIN_BATCH[n]:
        return _fft_backend()
    return None


def mod_square_chains(residues: Sequence[FermatResidue],
                      count: int) -> List[FermatResidue]:
    """a^(2^count) mod F_n for each of one or more residues a at one
    index n, by `count` successive squarings.

    The one routine that squares: chain_backend picks the backend from
    n and the number of residues, one included.  The FFT squares them
    all together; without it, or when it refuses the call, they are
    squared on the integer multiply, chain by chain, from the start.
    """
    if count < 0:
        raise ValueError(f"squaring count must be >= 0, got {count}")
    n = residues[0].n
    if any(a.n != n for a in residues):
        raise ModulusMismatchError(
            "cannot square residues mod different F_n together")
    values = [a.value for a in residues]
    fft = chain_backend(n, len(values))
    squared = None if fft is None else fft.square_chain(values, count, n)
    if squared is None:
        width = 1 << n
        top = 1 << width
        mask = top - 1
        squared = []
        for x in values:
            for _ in range(count):
                x = _mulmod(x, x, width, top, mask)
            squared.append(x)
    return [FermatResidue(n, x) for x in squared]


def mod_square_chain(a: FermatResidue, count: int) -> FermatResidue:
    """a^(2^count) mod F_n by `count` successive squarings.

    This is how every exponent in this library is realised: the Fermat
    congruence exponent F_n - 1 is 2^n squarings, the Pepin exponent
    (F_n - 1)/2 is 2^n - 1, the quarter exponent (F_n - 1)/4 is 2^n - 2.
    It is the batch of one of mod_square_chains.
    """
    return mod_square_chains([a], count)[0]


def square_blocks(bases: Sequence[int], residues: Sequence[FermatResidue],
                  index: int, stops: Iterable[int]
                  ) -> Iterator[Tuple[int, List[FermatResidue]]]:
    """Square residues, the entries at `index` of the chains of `bases`
    at one n, through each of the ascending `stops`, in squaring calls:
    mod_square_chain for a lone chain, mod_square_chains for a batch.
    Bases and residues pair one to one; lists of two lengths raise
    ValueError before any squaring.

    A call ends at every stop and at every multiple of CHAIN_BLOCK, so
    none is longer than CHAIN_BLOCK squarings; stops at or below index
    are skipped.  A lone chain yields (index, residues) after every
    call, a batch after each call that ends on a stop.  Callers act
    between yields and end the chain by leaving the loop: nothing is
    squared past the last yield taken.

    1 squares to 1, so once every chain is at 1 no later entry can
    differ: nothing more is squared, and the index jumps to the next
    stop.  Every stop is still yielded and checked, but a lone chain at
    1 yields at its stops only, not at every block end.  A batch with a
    chain not at 1 is squared whole, so that it keeps the backend that
    chain_backend picked for its size.

    Before each yield, factors.check_known_factor raises
    CheckpointError for a residue that is not its base^(2^index)
    modulo a known factor of F_n, so every residue yielded has been
    checked.  A lone chain's checks cost a few ms in all below n = 14
    and about 1% of each block from n = 14 up (figures above).  A batch
    is checked and yielded only at its stops (the audit's taps):
    checking 25 chains at every block end cost 13-100% of their block
    at n = 7..13.
    """
    # factors imports this module
    from .factors import check_known_factor
    if len(bases) != len(residues):
        raise ValueError(f"{len(bases)} bases for {len(residues)} chains")
    # A lone chain is squared through mod_square_chain, where
    # clibench/tracer.py counts squarings and tests inject lone-chain
    # faults, and is checked at every block end.
    lone = len(residues) == 1
    for stop in stops:
        while index < stop:
            if all(x.is_one for x in residues):
                # 1 squares to 1 (see the docstring)
                end = stop
            else:
                end = min(stop, (index // CHAIN_BLOCK + 1) * CHAIN_BLOCK)
                residues = [mod_square_chain(residues[0], end - index)] \
                    if lone else mod_square_chains(residues, end - index)
            index = end
            if lone or index == stop:
                for base, x in zip(bases, residues):
                    check_known_factor(x.n, base, index, x.value,
                                       f"chain residue of base 0x{base:x}")
                yield index, residues
