"""Decimal magnitudes stored as base-10^18 limbs.

A magnitude is an unsigned integer held as a sequence of limbs, most
significant first.  Each limb packs 18 decimal digits, so every stored
limb is below 10^18 and any transient produced during subtraction
(limb + 10^18) stays below 2^63 and fits a 64-bit signed word.
"""

from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, InvalidDigit, LengthUnderflow

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
    limbs is first read.  Threads that race on that first read may each
    build the tuple, the tuples are equal, and either one is kept.
    """

    limbs: tuple[int, ...]
    # The same limbs as a read-only int64 array from _ARRAY_MIN_LIMBS limbs
    # up, else None.  Not a field: equality, hashing and repr see only limbs.
    _array = None

    def __post_init__(self):
        # kept as given, a list would make the instance unhashable and
        # unequal to the same limbs in a tuple; tuple() of a tuple is itself
        limbs = tuple(self.limbs)
        object.__setattr__(self, "limbs", limbs)
        _check_lead_limb(limbs)
        _check_limb_range(limbs)
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


class _LimbsFromArray:
    """DecimalMagnitude.limbs of a magnitude that holds only its array:
    builds the tuple on first read and stores it on the instance, where
    it shadows this descriptor from then on.

    A non-data descriptor rather than __getattr__, which taxes every
    attribute read: on sequential operations of 1-112 limbs, the
    subtraction call read 3-4% slower than without either, and 2% with
    this.  Reading limbs still costs more than with no class attribute of
    that name, so hot paths read it once."""

    def __get__(self, m, owner=None):
        if m is None:
            return self
        limbs = tuple(m._array.tolist())
        object.__setattr__(m, "limbs", limbs)
        return limbs


# set once the dataclass is built, which would take it for a default
DecimalMagnitude.limbs = _LimbsFromArray()


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


def _magnitude_from_array(arr: np.ndarray) -> DecimalMagnitude:
    """Build a magnitude from a 1-D int64 limb array.

    Runs the same checks as the public constructor and raises the same
    errors.  From _ARRAY_MIN_LIMBS limbs up the magnitude keeps only the
    array, made read-only, and builds its limbs tuple on first read; the
    caller must hold no other writable view of the array.
    """
    if len(arr) < _ARRAY_MIN_LIMBS:
        return DecimalMagnitude(arr.tolist())
    _check_lead_limb(arr)
    # Seen as uint64, a negative limb is at least 2^63, so one reduction
    # checks both ends of the range; the tuple check names the limb.
    if arr.view(np.uint64).max() >= _LIMB_BASE_U64:
        _check_limb_range(tuple(arr.tolist()))
    arr.flags.writeable = False
    m = object.__new__(DecimalMagnitude)
    object.__setattr__(m, "_array", arr)
    return m


def _magnitude_from_list(limbs: list[int]) -> DecimalMagnitude:
    """Build a magnitude from a limb list that may start with zero limbs.
    From _ARRAY_MIN_LIMBS limbs up, fromiter builds the kept array: 1.9 ms
    at 55,556 limbs on a 2-vCPU Xeon, against 2.5 ms for np.array."""
    n = len(limbs)
    if n < _ARRAY_MIN_LIMBS:
        return DecimalMagnitude(canonical_limbs(limbs))
    return _magnitude_from_array(_canonical_array(np.fromiter(limbs, np.int64, n)))


def limb_array(m: DecimalMagnitude) -> np.ndarray:
    """m's limbs as a read-only int64 array: the one m keeps from
    _ARRAY_MIN_LIMBS limbs up, else a new one."""
    arr = m._array
    if arr is None:
        arr = np.array(m.limbs, dtype=np.int64)
        arr.flags.writeable = False
    return arr


def canonical_limbs(limbs: list[int]) -> tuple[int, ...]:
    """Strip leading zero limbs, keeping at least one."""
    k = 0
    last = len(limbs) - 1
    while k < last and limbs[k] == 0:
        k += 1
    return tuple(limbs[k:])


def _canonical_array(arr: np.ndarray) -> np.ndarray:
    """A view of a limb array without its leading zero limbs, keeping at
    least one."""
    n = len(arr)
    if n == 1 or arr[0] != 0:
        return arr
    nonzero = arr[:-1] != 0
    return arr[int(nonzero.argmax()) if nonzero.any() else n - 1 :]


def parse_magnitude(s: str) -> DecimalMagnitude:
    """Parse a decimal digit string into limbs, most significant first.

    Limbs are the right-to-left 18-digit slices of the string; leading
    zeros are absorbed so the result is canonical.  Only ASCII digits are
    accepted; the first other character raises InvalidDigit.
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
    raw = raw.lstrip(b"0")
    if not raw:
        return DecimalMagnitude((0,))
    raw = raw.rjust(-(-len(raw) // LIMB_DIGITS) * LIMB_DIGITS, b"0")
    digits = (np.frombuffer(raw, np.uint8) - ord("0")).reshape(-1, LIMB_DIGITS)
    return _magnitude_from_array(digits.astype(np.int64) @ _DIGIT_WEIGHTS)


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

    Limb count decides first; equal counts fall back to lexicographic
    comparison of limbs, most significant first.
    """
    na, nb = a.limb_count, b.limb_count
    if na != nb:
        return -1 if na < nb else 1
    if na < _ARRAY_MIN_LIMBS:
        x, y = a.limbs, b.limbs
        if x == y:
            return 0
        return -1 if x < y else 1
    # the first differing limb decides: most often the lead limb, which
    # spares the full scan; else argmax finds it, or gives 0 if none does
    x, y = a._array, b._array
    i = 0
    if x[0] == y[0]:
        differ = x != y
        i = int(differ.argmax())
        if not differ[i]:
            return 0
    return -1 if x[i] < y[i] else 1


def pad_to_length(m: DecimalMagnitude, n: int) -> list[int]:
    """Return m's limbs with zero limbs prepended up to length n.

    The output is generally not canonical; it exists so subtraction can
    run over aligned, equal-length limb sequences.
    """
    count = m.limb_count
    if n < count:
        raise LengthUnderflow(f"cannot pad {count} limbs down to {n}")
    padded = limb_list(m)
    padded[:0] = [0] * (n - count)
    return padded


def limb_list(m: DecimalMagnitude) -> list[int]:
    """m's limbs as a new list of Python ints, read from the kept array
    when m has one, so that the limbs tuple is not built."""
    arr = m._array
    return list(m.limbs) if arr is None else arr.tolist()
