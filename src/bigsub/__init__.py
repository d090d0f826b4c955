"""Big-integer decimal subtraction over base-10^18 limbs.

Two interchangeable algorithms: a single-worker subtraction that carries
one borrow bit, and a multi-worker speculative-borrow scheme, whose chunks
subtract in threads of their own and whose borrows are then resolved over
double-buffered passes.  A digit-wise reference implementation and a
benchmark CLI round out the package.  All three read the sign from the
borrow: one left over past the most significant limb or digit means
a < b and raises NegativeResult.

The top level holds what a library caller needs: the codec, the three
algorithms, their result types and the errors they raise.  The kernel
pieces of the chunked passes stay in `bigsub.parallel`.
"""

from .errors import (
    EmptyInput,
    InvalidDigit,
    IterationLimitExceeded,
    NegativeResult,
)
from .magnitude import (
    LIMB_BASE,
    LIMB_DIGITS,
    DecimalMagnitude,
    compare_magnitude,
    format_magnitude,
    parse_magnitude,
)
from .oracle import subtract_digitwise
from .parallel import IterationStats, subtract_parallel
from .sequential import OpCount, subtract_sequential

__version__ = "0.1.0"

__all__ = [
    "DecimalMagnitude",
    "EmptyInput",
    "InvalidDigit",
    "IterationLimitExceeded",
    "IterationStats",
    "LIMB_BASE",
    "LIMB_DIGITS",
    "NegativeResult",
    "OpCount",
    "compare_magnitude",
    "format_magnitude",
    "parse_magnitude",
    "subtract_digitwise",
    "subtract_parallel",
    "subtract_sequential",
]
