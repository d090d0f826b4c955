"""Second independent oracle: Python int subtraction.

Checks both limb algorithms, and the digit-wise oracle they are otherwise
compared with, against str(int(a) - int(b)) on seeded operands of up to
10^5 digits and on lengths at the 18-digit limb boundaries; and parse and
format against int on one 10^6-digit operand, the benchmark's size.
"""

import sys

import pytest

from bigsub import (
    LIMB_BASE,
    format_magnitude,
    parse_magnitude,
    subtract_digitwise,
    subtract_parallel,
    subtract_sequential,
)
from bigsub.bench import gen_operand, gen_ordered_pair
from bigsub.rng import SplitMix64

SEED = 0x1E7
LIMB_BOUNDARY_LENGTHS = (1, 17, 18, 19, 35, 36, 37, 53, 54, 55, 17 * 18, 18 * 18, 19 * 18 + 1)
MAX_DIGITS = 100_000


@pytest.fixture
def unlimited_int_digits():
    # Python 3.11+ refuses int <-> str conversions beyond 4300 digits by default
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    if set_limit is None:
        yield
        return
    previous = sys.get_int_max_str_digits()
    set_limit(0)
    try:
        yield
    finally:
        set_limit(previous)


def int_oracle_pairs():
    """Equal-length ordered pairs, each but the 1-digit one also with a
    shorter subtrahend."""
    rng = SplitMix64(SEED)
    lengths = list(LIMB_BOUNDARY_LENGTHS) + [MAX_DIGITS]
    lengths += [1 + int(rng.next_u64()) % MAX_DIGITS for _ in range(8)]
    for digits in lengths:
        a, b = gen_ordered_pair(digits, rng)
        yield a, b
        if digits > 1:
            yield a, gen_operand(1 + int(rng.next_u64()) % (digits - 1), rng)


def test_algorithms_match_python_int(unlimited_int_digits):
    for idx, (a_text, b_text) in enumerate(int_oracle_pairs()):
        want = str(int(a_text) - int(b_text))
        assert subtract_digitwise(a_text, b_text) == want
        a, b = parse_magnitude(a_text), parse_magnitude(b_text)
        assert format_magnitude(subtract_sequential(a, b)) == want
        got, _ = subtract_parallel(a, b, 1 + idx % 4)
        assert format_magnitude(got) == want


def limbs_value(limbs):
    """Value of base-10^18 limbs, most significant first, by halving: about
    1 s at 10^6 digits, where Horner's rule is quadratic."""
    if len(limbs) == 1:
        return limbs[0]
    mid = len(limbs) // 2
    low = limbs[mid:]
    return limbs_value(limbs[:mid]) * LIMB_BASE ** len(low) + limbs_value(low)


def test_codec_matches_python_int_at_benchmark_scale(unlimited_int_digits):
    # Before Python 3.12, int(text) is quadratic (about 9 s at 10^6 digits)
    # and str() of the result more so (about 20 s), so the int is built
    # once; text has a nonzero lead digit, so it is str(int(text)) and
    # format_magnitude is compared with it directly.
    text = gen_operand(10**6, SplitMix64(SEED))
    assert text[0] != "0"
    want = int(text)
    for padded in (text, "0" * 25 + text):
        m = parse_magnitude(padded)
        assert limbs_value(m.limbs) == want
        assert format_magnitude(m) == text
