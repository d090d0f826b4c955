"""Single-worker subtraction with left-scan borrow resolution.

Limbs are subtracted right to left.  When a limb would underflow, the
nearest nonzero limb to its left is decremented, every zero limb in
between becomes 10^18 - 1, and the underflowing limb gains 10^18, all in
one pass.  Transients therefore never exceed 2 * 10^18 - 1.
"""

from dataclasses import dataclass

from .errors import BorrowExhausted, NegativeResult
from .magnitude import (
    LIMB_BASE,
    DecimalMagnitude,
    _magnitude_from_list,
    compare_magnitude,
    limb_list,
    pad_to_length,
)


@dataclass
class OpCount:
    """Telemetry for one subtraction: basic operations and borrow events."""

    limb_subtractions: int = 0
    borrows: int = 0


def borrow_from_left(work: list[int], i: int) -> None:
    """Resolve an impending underflow at index i by borrowing leftward.

    Mutates work in place: the nearest nonzero limb k < i loses 1, limbs
    strictly between k and i become 10^18 - 1, and work[i] gains 10^18.
    The value of the whole sequence is unchanged.
    """
    k = i - 1
    while k >= 0 and work[k] == 0:
        k -= 1
    if k < 0:
        raise BorrowExhausted(i)
    work[k] -= 1
    for j in range(k + 1, i):
        work[j] = LIMB_BASE - 1
    work[i] += LIMB_BASE


def subtract_sequential(
    a: DecimalMagnitude,
    b: DecimalMagnitude,
    ops: OpCount | None = None,
) -> DecimalMagnitude:
    """Compute a - b over aligned limbs; requires a >= b.

    Works on a private copy of a's limbs, so callers never observe
    mutation.  Pass an OpCount to collect basic-operation telemetry.
    """
    if compare_magnitude(a, b) < 0:
        raise NegativeResult("minuend is smaller than subtrahend")
    n = a.limb_count
    work = limb_list(a)
    small = pad_to_length(b, n)
    borrows = 0
    # limb i is final once subtracted: borrows only reach limbs left of it
    for i in range(n - 1, -1, -1):
        if work[i] < small[i]:
            borrow_from_left(work, i)
            borrows += 1
        work[i] -= small[i]
    if ops is not None:
        ops.limb_subtractions += n
        ops.borrows += borrows
    return _magnitude_from_list(work)
