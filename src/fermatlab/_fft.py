"""Squaring modulo F_n = 2^N + 1 (N = 2^n) by a floating-point FFT.

A residue is held as L = N/16 balanced base-2^16 digits d_j, each within
2^15 + 1 of zero.  Squaring modulo 2^N + 1 is then a negacyclic convolution
of the digit vector, since 2^N = -1 wraps the carry out of the top digit
back onto digit 0 with its sign flipped.  The discrete weighted transform
(Crandall & Fagin, Math. Comp. 62, 1994) computes it with no zero padding
and no reduction step, in its right-angle form:

  * pack z_j = d_j + i*d_{j+L/2}, which maps Z[x]/(x^L + 1) onto
    C[x]/(x^{L/2} - i);
  * weight z_j by exp(i*pi*j/L), which turns x^{L/2} = i into a plain
    cyclic wrap, so a complex FFT of length L/2 convolves;
  * square pointwise, inverse FFT, unweight; the real parts are digits
    0..L/2-1 of the square and the imaginary parts digits L/2..L-1;
  * round to integers and carry in int64, the carry out of the top digit
    entering digit 0 negated.

Every squaring is guarded: when the largest distance of a transform
output from its rounded value exceeds MAX_ROUNDOFF (a NaN counts as
exceeding it), or the carry does not settle within MAX_CARRY_PASSES,
the squaring is redone from the previous digits by the integer multiply
of arith and counted in `fallbacks`.

`kernel` gives arith.mod_square_chain the (load, square, read)
operations it loops over: the chain stays in the digit domain and
converts to an int only at its end and when an observer asks for a
value; both conversions go through int.to_bytes / int.from_bytes and
are linear in N.
numpy is imported here, and this module only on the first chain that
uses it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .arith import Kernel, _mulmod

DIGIT_BITS = 16
# N = 32 bits is two digits, the shortest right-angle transform (length 1)
MIN_INDEX = 5
# real chains stay below 3e-3 up to n = 24
MAX_ROUNDOFF = 0.35
# a real product settles in 3 or 4 passes; past 8 the carry is rippling
# along the digits
MAX_CARRY_PASSES = 8

# Squarings redone by the integer multiply because the guard failed,
# counted over the life of the process.
fallbacks = 0

_HALF = 1 << (DIGIT_BITS - 1)


@dataclass(frozen=True)
class _Plan:
    """Sizes and transform weights for one Fermat index."""

    width: int        # N = 2^n bits
    top: int          # 2^N, the value of -1
    digits: int       # L
    weight: np.ndarray
    unweight: np.ndarray


@functools.cache
def _plan(n: int) -> _Plan:
    if n < MIN_INDEX:
        raise ValueError(f"the FFT backend needs n >= {MIN_INDEX}, got {n}")
    width = 1 << n
    digits = width // DIGIT_BITS
    angle = np.arange(digits // 2) * (np.pi / digits)
    return _Plan(width=width, top=1 << width, digits=digits,
                 weight=np.exp(1j * angle), unweight=np.exp(-1j * angle))


def to_digits(value: int, plan: _Plan) -> np.ndarray:
    """Balanced digits of a residue value in [0, 2^N]."""
    if value == plan.top:
        digits = np.zeros(plan.digits, np.int64)
        digits[0] = -1
        return digits
    digits = np.frombuffer(value.to_bytes(2 * plan.digits, "little"),
                           dtype="<u2").astype(np.int64)
    # one pass leaves every digit within [-2^15 - 1, 2^15]: a digit that
    # received a carry cannot have given one
    high = digits >> (DIGIT_BITS - 1)
    digits -= high << DIGIT_BITS
    digits[1:] += high[:-1]
    digits[0] -= high[-1]
    return digits


def to_int(digits: np.ndarray, plan: _Plan) -> int:
    """The residue value in [0, 2^N] of balanced digits."""
    pos = np.maximum(digits, 0).astype("<u2").tobytes()
    neg = np.maximum(-digits, 0).astype("<u2").tobytes()
    value = int.from_bytes(pos, "little") - int.from_bytes(neg, "little")
    # |value| < 2^N, so one addition of F_n makes it canonical
    return value + plan.top + 1 if value < 0 else value


def _transform(digits: np.ndarray, plan: _Plan) -> np.ndarray:
    """The negacyclic square of the digit vector, unrounded, in digit order."""
    half = plan.digits // 2
    z = np.empty(half, np.complex128)
    z.real = digits[:half]
    z.imag = digits[half:]
    z *= plan.weight
    z = np.fft.fft(z)
    z *= z
    z = np.fft.ifft(z)
    z *= plan.unweight
    return np.concatenate((z.real, z.imag))


def _carry(values: np.ndarray) -> Optional[np.ndarray]:
    """Digits in [-2^15, 2^15) with the same negacyclic value, or None
    when the carry has not settled after MAX_CARRY_PASSES passes."""
    for _ in range(MAX_CARRY_PASSES):
        high = (values + _HALF) >> DIGIT_BITS
        if not high.any():
            return values
        values -= high << DIGIT_BITS
        values[1:] += high[:-1]
        values[0] -= high[-1]
    return None


def _square(digits: np.ndarray, plan: _Plan) -> np.ndarray:
    global fallbacks
    product = _transform(digits, plan)
    rounded = np.rint(product)
    roundoff = np.max(np.abs(product - rounded))
    # written so that a NaN anywhere fails it
    if roundoff <= MAX_ROUNDOFF:
        carried = _carry(rounded.astype(np.int64))
        if carried is not None:
            return carried
    fallbacks += 1
    value = to_int(digits, plan)
    return to_digits(_mulmod(value, value, plan.width, plan.top,
                             plan.top - 1), plan)


def kernel(n: int) -> Kernel:
    """(load, square, read) for chains modulo F_n held as balanced
    digits."""
    plan = _plan(n)
    return (functools.partial(to_digits, plan=plan),
            functools.partial(_square, plan=plan),
            functools.partial(to_int, plan=plan))
