"""Single-worker subtraction that carries one borrow bit.

Limbs are subtracted right to left, each with the borrow the limb to its
right passed on.  A limb that underflows gains 10^18 and passes a borrow
of 1 to its left, so every stored limb stays below 10^18.  A borrow left
over after the most-significant limb means the subtrahend was larger.
"""

from dataclasses import dataclass

from .errors import NegativeResult
from .magnitude import LIMB_BASE, DecimalMagnitude, _magnitude_from_ints, pad_to_length


@dataclass
class OpCount:
    """Telemetry for one subtraction: basic operations and borrow events."""

    limb_subtractions: int = 0
    borrows: int = 0


def subtract_sequential(
    a: DecimalMagnitude,
    b: DecimalMagnitude,
    ops: OpCount | None = None,
) -> DecimalMagnitude:
    """Compute a - b over aligned limbs; raises NegativeResult when a < b.

    Works on a private copy of a's limbs, so callers never observe
    mutation.  Pass an OpCount to collect basic-operation telemetry; it is
    left untouched when the result would be negative.
    """
    n = max(a.limb_count, b.limb_count)
    work = pad_to_length(a, n)
    small = pad_to_length(b, n)
    borrow = borrows = 0
    for i in range(n - 1, -1, -1):
        limb = work[i]
        d = limb - small[i] - borrow
        if d < 0:
            # a zero limb that only passes on the borrow it received
            # lends nothing of its own, so it counts no borrow
            if limb or not borrow:
                borrows += 1
            work[i] = d + LIMB_BASE
            borrow = 1
        else:
            work[i] = d
            borrow = 0
    if borrow:
        raise NegativeResult("minuend is smaller than subtrahend")
    if ops is not None:
        ops.limb_subtractions += n
        ops.borrows += borrows
    return _magnitude_from_ints(work)
