"""Arithmetic modulo Fermat numbers F_n = 2^(2^n) + 1.

Residues live in the inclusive range [0, 2^(2^n)]; the top value 2^(2^n)
equals F_n - 1 and is the natural representative of -1.  Reduction never
divides: it uses the fold identity 2^(2^n) == -1 (mod F_n), i.e. the
alternating sum of base-2^(2^n) digits, so the hot path is shifts, masks
and adds.  The division-based route lives in oracle.py and shares nothing
with this module on purpose.

Exponents of interest here are all powers of two, so they are never
materialised as integers: callers pass a squaring count instead
(mod_square_chain).  (F_n - 1)/4 is "2^n - 2 squarings", not a number.

mod_square_chain is the one loop that squares modulo F_n.  It drives a
kernel: from n = FFT_MIN_INDEX on, the negacyclic FFT of _fft.py when
numpy imports; below it, without numpy, and whenever that backend's
roundoff guard fails, the integer multiply here.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

from .errors import IndexBelowTwoError, IndexOutOfRangeError, \
    ModulusMismatchError

DEFAULT_MAX_INDEX = 24
MAX_INDEX_ENV = "FERMAT_LAB_MAX_N"

# Called after each squaring with (number of squarings done, a callable
# returning the raw residue value); this is the checkpoint/progress hook.
# The value is a callable so that a chain held as FFT digits converts it
# only for the observers that read it.
Observer = Callable[[int, Callable[[], int]], None]

# (load, square, read) of one squaring backend for one index: int to
# chain state, state to its square mod F_n, state to the int residue.
Kernel = Tuple[Callable[[int], Any], Callable[[Any], Any],
               Callable[[Any], int]]

# Smallest index whose chains run on the FFT backend: per squaring it
# took 0.69x the time of the integer multiply at n=14 and 1.3x at n=13,
# and its share falls as n grows (table in CHANGES.md).
FFT_MIN_INDEX = 14

_HEX_DIGITS = frozenset("0123456789abcdef")


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
    """Canonical text form of a natural number: lowercase hex, no prefix."""
    if x < 0:
        raise ValueError(f"expected a nonnegative integer, got {x}")
    return format(x, "x")


def from_hex(text: str) -> int:
    if not text or not set(text) <= _HEX_DIGITS:
        raise ValueError(f"not a lowercase hex string: {text!r}")
    return int(text, 16)


@dataclass(frozen=True, slots=True)
class FermatResidue:
    """Canonical residue modulo F_n, with value in [0, 2^(2^n)] inclusive.

    The range is exactly the complete residue system 0..F_n-1; keeping the
    upper end inclusive just makes -1 the easy-to-spot value 2^(2^n).
    Instances are immutable and safe to share across threads.
    """

    n: int
    value: int

    def __post_init__(self):
        check_index(self.n)
        if not 0 <= self.value <= (1 << (1 << self.n)):
            raise ValueError(
                f"residue value out of range for F_{self.n}")

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
    # x, y in [0, top], so the product has at most three base-2^width digits
    # and the highest one is 0 or 1; a single conditional add finishes the
    # reduction.
    p = x * y
    s = (p & mask) - ((p >> width) & mask) + (p >> (width << 1))
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
    """The FFT squaring module, or None when numpy is not installed."""
    try:
        from . import _fft
    except ModuleNotFoundError as err:
        if err.name != "numpy":
            raise
        return None
    return _fft


def _kernel(n: int) -> Kernel:
    """The FFT kernel from FFT_MIN_INDEX when numpy imports, else the
    integer multiply on plain ints."""
    if n >= FFT_MIN_INDEX:
        fft = _fft_backend()
        if fft is not None:
            return fft.kernel(n)
    width = 1 << n
    top = 1 << width
    mask = top - 1
    return (int, lambda v: _mulmod(v, v, width, top, mask), int)


def mod_square_chain(a: FermatResidue, count: int,
                     observer: Optional[Observer] = None) -> FermatResidue:
    """a^(2^count) mod F_n by `count` successive squarings.

    This is how every exponent in this library is realised: the Fermat
    congruence exponent F_n - 1 is 2^n squarings, the Pepin exponent
    (F_n - 1)/2 is 2^n - 1, the quarter exponent (F_n - 1)/4 is 2^n - 2.
    The observer, when supplied, is invoked after each squaring with the
    squaring index (1-based) and a callable that returns that step's
    residue as an int.
    """
    if count < 0:
        raise ValueError(f"squaring count must be >= 0, got {count}")
    load, square, read = _kernel(a.n)
    x = load(a.value)
    for i in range(1, count + 1):
        x = square(x)
        if observer is not None:
            observer(i, functools.partial(read, x))
    return FermatResidue(a.n, read(x))
