import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsub import (
    LIMB_BASE,
    LIMB_DIGITS,
    DecimalMagnitude,
    EmptyInput,
    InvalidDigit,
    compare_magnitude,
    format_magnitude,
    parse_magnitude,
    subtract_parallel,
    subtract_sequential,
)
from bigsub.errors import LengthUnderflow
from bigsub.magnitude import pad_to_length
from bigsub.rng import SplitMix64

B1 = LIMB_BASE - 1


def test_parse_splits_right_to_left():
    m = parse_magnitude("12345678909876543211234567890987654321")
    assert m.limbs == (12, 345678909876543211, 234567890987654321)


def test_parse_zero():
    for length in (1, 4, 17, 18, 19, 36):
        assert parse_magnitude("0" * length).limbs == (0,)


def test_parse_strips_leading_zeros():
    assert parse_magnitude("000123").limbs == (123,)


def test_parse_empty_rejected():
    with pytest.raises(EmptyInput):
        parse_magnitude("")


@pytest.mark.parametrize(
    "text,pos,char",
    [
        ("12a3", 2, "a"),
        ("-5", 0, "-"),
        ("1 2", 1, " "),
        ("12/3", 2, "/"),  # 0x2F, just below "0"
        ("123:", 3, ":"),  # 0x3A, just above "9"
        ("4\x005", 1, "\x00"),
        ("\x7f9", 0, "\x7f"),
        ("000a1", 3, "a"),
        ("12\u06634", 2, "\u0663"),  # ARABIC-INDIC DIGIT THREE after ASCII digits
        ("\u00b2", 0, "\u00b2"),  # SUPERSCRIPT TWO: str.isdigit() accepts it
        ("9\ud800", 1, "\ud800"),  # a lone surrogate: no codec encodes it
    ],
)
def test_parse_invalid_digit_carries_position(text, pos, char):
    with pytest.raises(InvalidDigit) as err:
        parse_magnitude(text)
    assert err.value.position == pos
    assert err.value.char == char


def test_parse_invalid_last_digit_of_a_long_operand():
    text = "7" * (10**6 - 1) + "x"
    with pytest.raises(InvalidDigit) as err:
        parse_magnitude(text)
    assert err.value.position == 10**6 - 1
    assert err.value.char == "x"


def test_parse_rejects_unicode_digits():
    with pytest.raises(InvalidDigit):
        parse_magnitude("１２３")  # fullwidth digits are not ASCII


def test_format_pads_inner_limbs():
    m = DecimalMagnitude((12, 345678909876543211, 234567890987654321))
    assert format_magnitude(m) == "12345678909876543211234567890987654321"
    assert format_magnitude(DecimalMagnitude((1, 5))) == "1000000000000000005"
    assert format_magnitude(DecimalMagnitude((0,))) == "0"
    assert format_magnitude(DecimalMagnitude([7, 0, 42])) == "7" + "0" * 34 + "42"


def test_limbs_given_as_a_list_act_as_a_tuple():
    assert DecimalMagnitude([1, 2]) == DecimalMagnitude((1, 2))
    assert compare_magnitude(DecimalMagnitude([1, 2]), DecimalMagnitude((1, 3))) == -1
    assert hash(DecimalMagnitude([1])) == hash(DecimalMagnitude((1,)))


def test_compare_by_limb_count_then_lexicographic():
    assert compare_magnitude(DecimalMagnitude((1, 0)), DecimalMagnitude((B1,))) == 1
    assert compare_magnitude(DecimalMagnitude((5,)), DecimalMagnitude((5,))) == 0
    assert compare_magnitude(DecimalMagnitude((0,)), DecimalMagnitude((1,))) == -1


def test_pad_to_length():
    assert pad_to_length(DecimalMagnitude((7,)), 3) == [0, 0, 7]
    assert pad_to_length(DecimalMagnitude((1, 2)), 2) == [1, 2]
    assert pad_to_length(DecimalMagnitude((9,)), 1) == [9]
    with pytest.raises(LengthUnderflow):
        pad_to_length(DecimalMagnitude((1, 2)), 1)


def test_magnitude_invariants_enforced():
    with pytest.raises(ValueError):
        DecimalMagnitude(())
    with pytest.raises(ValueError):
        DecimalMagnitude((0, 5))
    with pytest.raises(ValueError):
        DecimalMagnitude((LIMB_BASE,))
    with pytest.raises(ValueError):
        DecimalMagnitude((-1,))


@pytest.mark.parametrize("limbs,bad", [((1, LIMB_BASE, 0), LIMB_BASE), ((1, -1, 2), -1)])
def test_inner_limb_out_of_range_is_named(limbs, bad):
    with pytest.raises(ValueError, match=f"limb {bad} outside"):
        DecimalMagnitude(limbs)


def test_limbs_are_a_tuple_of_python_ints():
    a = parse_magnitude("9" * (3 * LIMB_DIGITS + 5))
    b = parse_magnitude("1" + "0" * (2 * LIMB_DIGITS))
    for m in (a, b, subtract_sequential(a, b), subtract_parallel(a, b, 2)[0]):
        assert type(m.limbs) is tuple
        assert all(type(limb) is int for limb in m.limbs)


digit_strings = st.integers(min_value=0, max_value=10**200 - 1).map(str)


@given(digit_strings)
def test_round_trip(s):
    assert format_magnitude(parse_magnitude(s)) == s


@given(digit_strings, st.integers(min_value=0, max_value=30))
def test_leading_zeros_normalize(s, k):
    assert parse_magnitude("0" * k + s) == parse_magnitude(s)


@given(digit_strings)
def test_limbs_are_18_digit_slices(s):
    m = parse_magnitude(s)
    assert all(0 <= limb < LIMB_BASE for limb in m.limbs)
    text = format_magnitude(m)
    # every inner limb corresponds to an exactly-18-character slice
    for j, limb in enumerate(reversed(m.limbs[1:]), start=1):
        lo, hi = len(text) - 18 * j, len(text) - 18 * (j - 1)
        assert int(text[lo:hi]) == limb


@given(st.integers(min_value=0), st.integers(min_value=0))
def test_compare_matches_integer_order(x, y):
    a, b = parse_magnitude(str(x)), parse_magnitude(str(y))
    assert compare_magnitude(a, b) == (x > y) - (x < y)


@settings(max_examples=50, deadline=None)
@given(digit_strings)
def test_magnitudes_hash_and_compare_as_values(s):
    assert parse_magnitude(s) == parse_magnitude("00" + s)
    assert str(parse_magnitude(s)) == s


def test_compare_agrees_with_string_compare_bulk():
    rng = SplitMix64(99)
    for _ in range(10_000):
        la = 1 + int(rng.next_u64()) % 60
        lb = 1 + int(rng.next_u64()) % 60
        a = "".join(str(int(v) % 10) for v in rng.next_block(la))
        b = "".join(str(int(v) % 10) for v in rng.next_block(lb))
        sa, sb = a.lstrip("0") or "0", b.lstrip("0") or "0"
        want = -1 if (len(sa), sa) < (len(sb), sb) else (0 if sa == sb else 1)
        assert compare_magnitude(parse_magnitude(a), parse_magnitude(b)) == want
