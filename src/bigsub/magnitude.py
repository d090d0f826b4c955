"""Decimal magnitudes stored as base-10^18 limbs.

A magnitude is an unsigned integer held as a sequence of limbs, most
significant first.  Each limb packs 18 decimal digits, so every stored
limb is below 10^18 and any transient produced during subtraction
(limb + 10^18) stays below 2^63 and fits a 64-bit signed word.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidDigit

LIMB_DIGITS = 18
LIMB_BASE = 10**LIMB_DIGITS

_DIGITS = frozenset("0123456789")
# place values of the digits in one limb, most significant first
_DIGIT_WEIGHTS = 10 ** np.arange(LIMB_DIGITS - 1, -1, -1, dtype=np.int64)
# the 4 ASCII bytes of "0000".."9999", one uint32 each
_DIGIT_GROUPS = np.frombuffer(
    "".join("%04d" % i for i in range(10_000)).encode("ascii"), dtype=np.uint32
)
# Limb count from which a magnitude holds its limbs as an int64 array,
# however it is built (measured on a 2-vCPU Xeon):
# - format_magnitude renders from the array.  A `%` format costs about
#   0.13 µs a limb and almost nothing per call; the array path costs
#   about 11 µs a call and 0.07 µs a limb, so they meet near 128 limbs.
# - Keeping the array costs a numpy range check and a read-only flag,
#   2 µs a magnitude in a tight loop and more between other work, where
#   the constructor's min and max cost about 0.03 µs a limb; magnitudes
#   of 64-112 limbs that kept it made a mixed parse, subtract and format
#   loop 10% slower at the p90.
_ARRAY_MIN_LIMBS = 128
_LIMB_BASE_U64 = np.uint64(LIMB_BASE)


@dataclass(frozen=True)
class DecimalMagnitude:
    """Canonical unsigned integer: no leading zero limbs, zero is (0,).

    Instances are immutable and safe to share across threads.  From
    _ARRAY_MIN_LIMBS limbs up a magnitude holds its limbs as a read-only
    int64 array; one the array builder made holds only that array until
    limbs is first read, which builds the tuple and keeps it.  Up to
    Python 3.11 cached_property holds a class-wide lock, so racing first
    reads take turns; from 3.12 there is none, so racing readers may each
    build the tuple.  Either way one equal tuple is kept.
    """

    limbs: tuple[int, ...]
    # The same limbs as a read-only int64 array from _ARRAY_MIN_LIMBS limbs
    # up, else None.  Not a field: equality, hashing and repr see only limbs.
    _array = None

    def __post_init__(self):
        # kept as given, a list would make the instance unhashable and
        # unequal to the same limbs in a tuple; tuple() of a tuple is itself
        limbs = tuple(self.limbs)
        _check_limb_types(limbs)
        _set_limbs(self, limbs)
        if len(limbs) >= _ARRAY_MIN_LIMBS:
            object.__setattr__(self, "_array", limb_array(self))

    def __reduce__(self):
        # Rebuild a copy through the checked constructor, which keeps an
        # array of its own: a copy of the kept array would come back
        # writable and unchecked.
        return DecimalMagnitude, (self.limbs,)

    @property
    def limb_count(self) -> int:
        arr = self._array
        return len(self.limbs) if arr is None else len(arr)

    def __str__(self) -> str:
        return format_magnitude(self)


# Set once the dataclass is built, which would take it for a default.  A
# non-data descriptor rather than __getattr__, which taxes every attribute
# read: sequential calls of 1-112 limbs read 3-4% slower with it, 2% with this.
DecimalMagnitude.limbs = functools.cached_property(lambda m: tuple(m._array.tolist()))
DecimalMagnitude.limbs.__set_name__(DecimalMagnitude, "limbs")


def _set_limbs(m: DecimalMagnitude, limbs: tuple[int, ...]) -> None:
    """Store int limbs on a magnitude being built, after the checks every
    builder runs."""
    object.__setattr__(m, "limbs", limbs)
    _check_lead_limb(limbs)
    _check_limb_range(limbs)


def _magnitude_from_ints(limbs: list[int] | tuple[int, ...]) -> DecimalMagnitude:
    """Build a magnitude from Python-int limbs that may start with zero
    limbs, such as tolist or int arithmetic made, stripping them.

    Skips the constructor's type check: at about 0.03 µs a limb, it made
    a small-many-like loop of parses, sequential subtractions and formats
    12% slower on a 2-vCPU Xeon.  From _ARRAY_MIN_LIMBS limbs up, fromiter
    builds the array to keep: 1.9 ms at 55,556 limbs on that host, against
    2.5 ms for np.array.
    """
    n = len(limbs)
    if n >= _ARRAY_MIN_LIMBS:
        return _magnitude_from_padded(np.fromiter(limbs, np.int64, n))
    m = object.__new__(DecimalMagnitude)
    _set_limbs(m, canonical_limbs(limbs))
    return m


def _check_limb_types(limbs: tuple) -> None:
    # A float, Decimal or numpy scalar limb would pass the range check and
    # then be truncated, or kept as it is beside a truncated array copy.
    # int.__instancecheck__ is isinstance(limb, int) as a C call, for map.
    if not all(map(int.__instancecheck__, limbs)):
        pos = next(i for i, limb in enumerate(limbs) if not isinstance(limb, int))
        raise TypeError(f"limb {pos} is a {type(limbs[pos]).__name__}, not an int")


def _check_lead_limb(limbs: tuple[int, ...]) -> None:
    if len(limbs) == 0:
        raise ValueError("magnitude needs at least one limb")
    if len(limbs) > 1 and limbs[0] == 0:
        raise ValueError("leading zero limb in a multi-limb magnitude")


def _check_limb_range(limbs: tuple[int, ...]) -> None:
    # every limb is in range iff the smallest and the largest are
    for limb in (min(limbs), max(limbs)):
        if not 0 <= limb < LIMB_BASE:
            raise ValueError(f"limb {limb} outside [0, 10^{LIMB_DIGITS})")


def _magnitude_from_padded(arr: np.ndarray) -> DecimalMagnitude:
    """Build a magnitude from a 1-D int64 limb array that may start with
    zero limbs, stripping them.

    Where the public constructor rejects a leading zero limb, this strips
    it; it runs the constructor's other checks and raises the same errors.
    From _ARRAY_MIN_LIMBS limbs up the magnitude keeps only the array,
    made read-only, and builds its limbs tuple on first read; the caller
    must hold no other writable view of the array.  Stripping copies what
    is left, so that a short result does not keep the stripped limbs
    alive.
    """
    if len(arr) < _ARRAY_MIN_LIMBS:
        return _magnitude_from_ints(arr.tolist())
    if arr[0] == 0:
        nonzero = arr[:-1] != 0
        start = int(nonzero.argmax()) if nonzero.any() else len(arr) - 1
        return _magnitude_from_padded(arr[start:].copy())
    # Seen as uint64, a negative limb is at least 2^63, so one reduction
    # checks both ends of the range; the tuple check names the limb.
    if arr.view(np.uint64).max() >= _LIMB_BASE_U64:
        _check_limb_range(tuple(arr.tolist()))
    arr.flags.writeable = False
    m = object.__new__(DecimalMagnitude)
    object.__setattr__(m, "_array", arr)
    return m


def limb_array(m: DecimalMagnitude) -> np.ndarray:
    """m's limbs as a read-only int64 array: the one m keeps from
    _ARRAY_MIN_LIMBS limbs up, else a new one."""
    arr = m._array
    if arr is None:
        arr = np.array(m.limbs, dtype=np.int64)
        arr.flags.writeable = False
    return arr


def canonical_limbs(limbs: list[int] | tuple[int, ...]) -> tuple[int, ...]:
    """limbs as a tuple without leading zero limbs, keeping at least one;
    limbs that start with no zero limb are copied once, not sliced first."""
    k = 0
    last = len(limbs) - 1
    while k < last and limbs[k] == 0:
        k += 1
    return tuple(limbs[k:]) if k else tuple(limbs)


def parse_magnitude(s: str) -> DecimalMagnitude:
    """Parse a decimal digit string into limbs, most significant first.

    Limbs are the right-to-left 18-digit slices of the string; leading
    zeros become zero limbs, which the array builder strips, so the result
    is canonical.  Only ASCII digits are accepted; the first other
    character raises InvalidDigit.
    """
    if len(s) == 0:
        raise EmptyInput("empty operand")
    # bytes.isdigit accepts ASCII digits only; b"".isdigit() is False, so
    # non-ASCII text takes the scan that locates the offending character
    raw = s.encode("ascii") if s.isascii() else b""
    if not raw.isdigit():
        for pos, ch in enumerate(s):
            if ch not in _DIGITS:
                raise InvalidDigit(pos, ch)
    raw = raw.rjust(-(-len(raw) // LIMB_DIGITS) * LIMB_DIGITS, b"0")
    digits = (np.frombuffer(raw, np.uint8) - ord("0")).reshape(-1, LIMB_DIGITS)
    return _magnitude_from_padded(digits.astype(np.int64) @ _DIGIT_WEIGHTS)


def format_magnitude(m: DecimalMagnitude) -> str:
    """Render a magnitude as a decimal string.

    The most-significant limb is rendered bare; every inner limb is
    zero-padded to 18 characters so concatenation is value-correct.
    """
    n = m.limb_count
    if n < _ARRAY_MIN_LIMBS:
        return ("%d" + "%018d" * (n - 1)) % m.limbs
    # Split every limb into 5 groups of 4 digits (the first group is
    # below 100), look each group's 4 characters up, and drop the first
    # group's 2 always-zero characters: 18 characters a limb.  The lead
    # limb is nonzero here, so stripping "0"s leaves it bare.
    groups = np.empty((n, 5), np.int64)
    v = m._array
    for j in (4, 3, 2, 1):
        q = v // 10_000
        groups[:, j] = v - q * 10_000
        v = q
    groups[:, 0] = v
    chars = _DIGIT_GROUPS[groups].view(np.uint8)[:, 2:]
    return chars.tobytes().lstrip(b"0").decode("ascii")


def compare_magnitude(a: DecimalMagnitude, b: DecimalMagnitude) -> int:
    """Three-way compare of canonical magnitudes: -1 less, 0 equal, 1 greater.

    Limb count decides first; equal counts compare the first limb, most
    significant first, in which the two limb arrays differ.
    """
    x, y = a.limb_count, b.limb_count
    if x == y:
        xs, ys = limb_array(a), limb_array(b)
        # argmax gives the first differing limb, or 0 when none differs
        i = int((xs != ys).argmax())
        x, y = int(xs[i]), int(ys[i])
    return (x > y) - (x < y)


def pad_to_length(m: DecimalMagnitude, n: int) -> list[int]:
    """Return m's limbs as a new list with zero limbs prepended up to
    length n, read from the kept array when m has one, so that the limbs
    tuple is not built.

    The output is generally not canonical; it exists so subtraction can
    run over aligned, equal-length limb sequences.
    """
    arr = m._array
    padded = list(m.limbs) if arr is None else arr.tolist()
    count = len(padded)
    if n < count:
        raise ValueError(f"cannot pad {count} limbs down to {n}")
    if n > count:
        padded[:0] = [0] * (n - count)
    return padded
