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
the squaring is refused, and so is the whole call: square_chain
returns None at once, and arith squares the call again from its start,
a lone chain on integers and a batch chain by chain.  The distance is
taken in place: the rounded values go to a buffer of their own, and
the distances overwrite the product before one maximum is read.

`square_chain` runs a whole arith.mod_square_chain or mod_square_chains
call: B residues at one index, one per row of a (B, L) digit array,
squared together.  Every step above runs on the whole array (the FFTs
along its last axis), so numpy's fixed cost per squaring is paid once
for the B chains; a single chain is the batch of one.  The guard is
taken over the whole batch, so one bad row refuses the call for every
row.  A call converts the batch to digits once, squares `count` times
and converts back once.  Both conversions take the whole batch through
one bytes string (to_bytes of each residue joined, and one numpy read
of it; one tobytes per sign, sliced per row for from_bytes) and are
linear in N.  Each call allocates its work arrays (`_Work`) once and
every squaring of the call reuses them: the transform, the rounding
and the carry all write with out= or in place, with no temporaries.
They are not part of the cached plan, and the module keeps no state
of its own, so chains in two threads share nothing they write.  Beyond
the standard library it imports numpy alone (>= 2.0, for out= on its
FFT), and arith imports this module only on the first chain that uses
it.
"""

from __future__ import annotations

import functools
from typing import List, NamedTuple, Optional, Sequence

import numpy as np

# the FFTs write with out=, new in numpy 2.0; with an older numpy,
# arith squares on integers as it does without numpy
if int(np.__version__.split(".")[0]) < 2:
    raise ModuleNotFoundError("the FFT backend needs numpy >= 2.0",
                              name="numpy")

DIGIT_BITS = 16
# N = 32 bits is two digits, the shortest right-angle transform (length 1)
MIN_INDEX = 5
# real chains stay below 3e-3 up to n = 24
MAX_ROUNDOFF = 0.35
# a real product settles in 3 or 4 passes; past 8 the carry is rippling
# along the digits
MAX_CARRY_PASSES = 8

_HALF = 1 << (DIGIT_BITS - 1)
_MASK = (1 << DIGIT_BITS) - 1


class _Plan(NamedTuple):
    """Sizes and transform weights for one Fermat index."""

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
    return _Plan(top=1 << width, digits=digits,
                 weight=np.exp(1j * angle), unweight=np.exp(-1j * angle))


def to_digits(values: Sequence[int], plan: _Plan) -> np.ndarray:
    """Balanced digits of residue values in [0, 2^N], one row each."""
    size = 2 * plan.digits
    # 2^N, the value of -1, is written as 0 and given digit 0 = -1 below
    blob = b"".join((0 if value == plan.top else value).to_bytes(
        size, "little") for value in values)
    digits = np.frombuffer(blob, dtype="<u2").astype(np.int64).reshape(
        len(values), plan.digits)
    # one pass leaves every digit within [-2^15 - 1, 2^15]: a digit that
    # received a carry cannot have given one
    high = digits >> (DIGIT_BITS - 1)
    digits -= high << DIGIT_BITS
    digits[:, 1:] += high[:, :-1]
    digits[:, 0] -= high[:, -1]
    digits[[value == plan.top for value in values], 0] = -1
    return digits


def to_int(digits: np.ndarray, plan: _Plan) -> List[int]:
    """The residue values in [0, 2^N] of rows of balanced digits."""
    size = 2 * plan.digits
    pos = memoryview(np.maximum(digits, 0).astype("<u2").tobytes())
    neg = memoryview(np.maximum(-digits, 0).astype("<u2").tobytes())
    values = (int.from_bytes(pos[i:i + size], "little")
              - int.from_bytes(neg[i:i + size], "little")
              for i in range(0, len(pos), size))
    # |value| < 2^N, so one addition of F_n makes it canonical
    return [value + plan.top + 1 if value < 0 else value
            for value in values]


class _Work:
    """The arrays one square_chain call squares on, one row per chain,
    reused by each of its squarings.  They belong to that call alone,
    not to the cached plan, so chains in two threads never share them."""

    def __init__(self, plan: _Plan, rows: int):
        self.plan = plan
        self.z = np.empty((rows, plan.digits // 2), np.complex128)
        self.product = np.empty((rows, plan.digits))
        self.rounded = np.empty((rows, plan.digits))
        self.high = np.empty((rows, plan.digits), np.int64)


def _transform(digits: np.ndarray, work: _Work) -> np.ndarray:
    """The negacyclic square of each row of digits, unrounded, in digit
    order, in work.product."""
    plan, z, product = work.plan, work.z, work.product
    half = plan.digits // 2
    z.real = digits[:, :half]
    z.imag = digits[:, half:]
    z *= plan.weight
    np.fft.fft(z, out=z)
    z *= z
    np.fft.ifft(z, out=z)
    z *= plan.unweight
    product[:, :half] = z.real
    product[:, half:] = z.imag
    return product


def _carry(values: np.ndarray, work: _Work) -> Optional[np.ndarray]:
    """Digits in [-2^15, 2^15) with the same negacyclic value in each
    row, carried in place, or None when the carry has not settled after
    MAX_CARRY_PASSES passes."""
    high = work.high
    # One add over the rows laid end to end (a third of the time of a
    # 2-D add at B = 25, n = 12) also puts each row's top carry on the
    # next row's digit 0; a pass takes it back from there and puts it,
    # negated, on its own row's digit 0.  The views are made once per
    # call, not per pass.
    flat, flat_high = values.reshape(-1), high.reshape(-1)
    first, first_after, top, top_before = \
        values[:, 0], values[1:, 0], high[:, -1], high[:-1, -1]
    # offset by 2^15, a digit in range is its low 16 bits and the rest
    # is its carry; the offset survives each pass
    values += _HALF
    for _ in range(MAX_CARRY_PASSES):
        np.right_shift(values, DIGIT_BITS, out=high)
        if not high.any():
            values -= _HALF
            return values
        values &= _MASK
        flat[1:] += flat_high[:-1]
        first_after -= top_before
        first -= top
    return None


def _square(digits: np.ndarray, work: _Work) -> Optional[np.ndarray]:
    """The squared digits of each row, or None when the guard refuses
    the squaring."""
    product = _transform(digits, work)
    rounded = work.rounded
    np.rint(product, out=rounded)
    # the distance to the nearest integer overwrites the product
    np.subtract(product, rounded, out=product)
    np.abs(product, out=product)
    # written so that a NaN anywhere fails it
    if not product.max() <= MAX_ROUNDOFF:
        return None
    # the transform has read the digits, so the square takes their place
    digits[:] = rounded
    return _carry(digits, work)


def square_chain(values: Sequence[int], count: int,
                 n: int) -> Optional[List[int]]:
    """value^(2^count) modulo F_n for each of one or more values in
    [0, 2^N], by `count` squarings of their balanced digits, all
    values at once; None as soon as the guard refuses a squaring."""
    plan = _plan(n)
    work = _Work(plan, len(values))
    digits = to_digits(values, plan)
    for _ in range(count):
        digits = _square(digits, work)
        if digits is None:
            return None
    return to_int(digits, plan)
