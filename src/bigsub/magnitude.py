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


@dataclass(frozen=True)
class DecimalMagnitude:
    """Canonical unsigned integer: no leading zero limbs, zero is (0,).

    Instances are immutable and safe to share across threads.
    """

    limbs: tuple[int, ...]

    def __post_init__(self):
        # kept as given, a list would make the instance unhashable and
        # unequal to the same limbs in a tuple; tuple() of a tuple is itself
        object.__setattr__(self, "limbs", tuple(self.limbs))
        if len(self.limbs) == 0:
            raise ValueError("magnitude needs at least one limb")
        if len(self.limbs) > 1 and self.limbs[0] == 0:
            raise ValueError("leading zero limb in a multi-limb magnitude")
        # every limb is in range iff the smallest and the largest are
        for limb in (min(self.limbs), max(self.limbs)):
            if not 0 <= limb < LIMB_BASE:
                raise ValueError(f"limb {limb} outside [0, 10^{LIMB_DIGITS})")

    @property
    def limb_count(self) -> int:
        return len(self.limbs)

    def __str__(self) -> str:
        return format_magnitude(self)


def canonical_limbs(limbs: list[int]) -> tuple[int, ...]:
    """Strip leading zero limbs, keeping at least one."""
    k = 0
    last = len(limbs) - 1
    while k < last and limbs[k] == 0:
        k += 1
    return tuple(limbs[k:])


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
    return DecimalMagnitude(tuple((digits.astype(np.int64) @ _DIGIT_WEIGHTS).tolist()))


def format_magnitude(m: DecimalMagnitude) -> str:
    """Render a magnitude as a decimal string.

    The most-significant limb is rendered bare; every inner limb is
    zero-padded to 18 characters so concatenation is value-correct.
    """
    return ("%d" + "%018d" * (m.limb_count - 1)) % tuple(m.limbs)


def compare_magnitude(a: DecimalMagnitude, b: DecimalMagnitude) -> int:
    """Three-way compare of canonical magnitudes: -1 less, 0 equal, 1 greater.

    Limb count decides first; equal counts fall back to lexicographic
    comparison of limbs, most significant first.
    """
    if a.limb_count != b.limb_count:
        return -1 if a.limb_count < b.limb_count else 1
    if a.limbs == b.limbs:
        return 0
    return -1 if a.limbs < b.limbs else 1


def pad_to_length(m: DecimalMagnitude, n: int) -> list[int]:
    """Return m's limbs with zero limbs prepended up to length n.

    The output is generally not canonical; it exists so subtraction can
    run over aligned, equal-length limb sequences.
    """
    if n < m.limb_count:
        raise LengthUnderflow(f"cannot pad {m.limb_count} limbs down to {n}")
    return [0] * (n - m.limb_count) + list(m.limbs)
