"""Reference subtraction, one base-10 character at a time.

Exists purely to validate the limb algorithms: it shares no code or
representation with them, so a limb-slicing bug cannot hide in both.
Used by the test suite, `selftest`, `sub --verify` and `bench --verify` only.
"""

from .errors import EmptyInput, InvalidDigit, NegativeResult

_ZERO = ord("0")


def _check_digits(s: str) -> None:
    if len(s) == 0:
        raise EmptyInput("empty operand")
    if not (s.isascii() and s.isdigit()):
        for pos, ch in enumerate(s):
            if not "0" <= ch <= "9":
                raise InvalidDigit(pos, ch)


def _strip(digits: list[int]) -> str:
    # digits arrive least-significant first
    while len(digits) > 1 and digits[-1] == 0:
        digits.pop()
    return "".join(chr(d + _ZERO) for d in reversed(digits))


def subtract_digitwise(a: str, b: str) -> str:
    """Schoolbook right-to-left subtraction with single-digit borrows."""
    _check_digits(a)
    _check_digits(b)
    la, lb = len(a), len(b)
    out: list[int] = []
    borrow = 0
    for k in range(max(la, lb)):
        da = ord(a[la - 1 - k]) - _ZERO if k < la else 0
        db = ord(b[lb - 1 - k]) - _ZERO if k < lb else 0
        d = da - db - borrow
        if d < 0:
            d += 10
            borrow = 1
        else:
            borrow = 0
        out.append(d)
    if borrow:
        raise NegativeResult("minuend is smaller than subtrahend")
    return _strip(out)

