import copy
import functools
import pickle
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from bigsub.bench import gen_operand
from bigsub.magnitude import (
    _magnitude_from_ints,
    _magnitude_from_padded,
    limb_array,
    pad_to_length,
)
from bigsub.rng import SplitMix64

B1 = LIMB_BASE - 1


def test_parse_splits_right_to_left():
    m = parse_magnitude("12345678909876543211234567890987654321")
    assert m.limbs == (12, 345678909876543211, 234567890987654321)


def test_parse_zero():
    # 130 zero limbs cross the size from which the builder strips an array
    for length in (1, 4, 17, 18, 19, 36, 130 * LIMB_DIGITS):
        assert parse_magnitude("0" * length).limbs == (0,)


def test_parse_strips_leading_zeros():
    assert parse_magnitude("000123").limbs == (123,)
    # 3 zero limbs before 126 limbs: the parsed array of 129 limbs strips
    # below 128, so the magnitude keeps a tuple and no array
    text = "9" * (126 * LIMB_DIGITS)
    m = parse_magnitude("0" * (3 * LIMB_DIGITS) + text)
    assert m == parse_magnitude(text) and m.limb_count == 126
    assert m._array is None and str(m) == text


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
    with pytest.raises(ValueError, match="cannot pad"):
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
    # a limb that is not an int, alone, and leading or last of 201 limbs:
    # before the type check, (2.5,) minus 1 gave "1", and from 128 limbs
    # up the kept array of (1.5,) + (0,) * 200 read 1 where limbs read 1.5
    for bad in (2.5, 2.0, 1.5, Decimal(3), np.int64(3), np.float64(3.0)):
        for limbs, pos in (
            ((bad,), 0),
            ((bad,) + (0,) * 200, 0),
            ((1,) + (0,) * 199 + (bad,), 200),
        ):
            with pytest.raises(TypeError, match=f"limb {pos} is a {type(bad).__name__}"):
                DecimalMagnitude(limbs)


@pytest.mark.parametrize("limbs,bad", [((1, LIMB_BASE, 0), LIMB_BASE), ((1, -1, 2), -1)])
def test_inner_limb_out_of_range_is_named(limbs, bad):
    with pytest.raises(ValueError, match=f"limb {bad} outside"):
        DecimalMagnitude(limbs)


@pytest.mark.parametrize("count", [3, 200])
@pytest.mark.parametrize("bad", [LIMB_BASE, -1])
def test_array_builder_names_an_inner_limb_out_of_range(count, bad):
    # 3 limbs go through the constructor, 200 through the numpy reduction
    limbs = [1] + [B1] * (count - 2) + [0]
    limbs[count // 2] = bad
    with pytest.raises(ValueError, match=f"limb {bad} outside"):
        _magnitude_from_padded(np.array(limbs, dtype=np.int64))


def test_array_builder_rejects_what_the_constructor_rejects():
    for limbs in ((), (LIMB_BASE,), (-1,)):
        with pytest.raises(ValueError) as want:
            DecimalMagnitude(limbs)
        with pytest.raises(ValueError, match=re.escape(str(want.value))):
            _magnitude_from_padded(np.array(limbs, dtype=np.int64))
    # a leading zero limb the builder strips, the constructor rejects
    assert _magnitude_from_padded(np.array([0, 5], dtype=np.int64)) == DecimalMagnitude((5,))
    with pytest.raises(ValueError, match="leading zero limb"):
        DecimalMagnitude((0, 5))


boundary_limbs = st.sampled_from([0, 1, 10**17, B1]) | st.integers(0, B1)


def limb_lists(low, high):
    """Canonical limb lists of every length in [low, high]: the length is
    drawn first, since st.lists alone seldom draws more than 30 items."""
    return st.integers(low, high).flatmap(
        lambda n: st.lists(boundary_limbs, min_size=n, max_size=n)
    ).filter(lambda limbs: limbs[0] != 0 or len(limbs) == 1)


def assert_storage_by_size(m):
    # the limb count alone decides whether a magnitude keeps an array
    assert (m._array is not None) == (m.limb_count >= 128)


# 128 and 130 limbs that strip to 126 and 127, and 129 that strip to 128
@example([1] * 126, 2)
@example([B1] * 127, 3)
@example([1] + [0] * 127, 1)
@settings(deadline=None)
@given(limb_lists(1, 200), st.integers(0, 3))
def test_array_builder_agrees_with_the_constructor_at_limb_boundaries(limbs, zeros):
    # both builders strip the prepended zero limbs; storage follows the
    # stripped limb count
    padded = [0] * zeros + limbs
    given_ = DecimalMagnitude(limbs)
    for build in (
        lambda: _magnitude_from_padded(np.array(padded, dtype=np.int64)),
        lambda: _magnitude_from_ints(padded),
    ):
        # each check runs on a fresh magnitude, before its limbs are first read
        assert ("limbs" in build().__dict__) == (len(limbs) < 128)
        assert build() == given_ and given_ == build()
        assert hash(build()) == hash(given_)
        assert repr(build()) == repr(given_)
        if len(limbs) >= 128:
            # a stripped array is a copy that owns its memory
            assert build()._array.base is None
        built = build()
        assert type(built.limbs) is tuple
        assert all(type(limb) is int for limb in built.limbs)
        check_limb_array(built)
    check_limb_array(given_)


def check_limb_array(m):
    assert_storage_by_size(m)
    arr = limb_array(m)
    assert arr.dtype == np.int64 and not arr.flags.writeable
    assert tuple(arr.tolist()) == m.limbs
    if m.limb_count >= 128:
        assert limb_array(m) is arr
    with pytest.raises(ValueError):
        arr[0] = 1


@pytest.mark.parametrize("digits", [400, 127 * LIMB_DIGITS, 127 * LIMB_DIGITS + 1, 128 * LIMB_DIGITS + 5])
def test_parsed_and_subtracted_limb_arrays_are_read_only(digits):
    a = parse_magnitude("9" * digits)
    b = parse_magnitude("1" + "0" * (digits - 1))
    # a - c has one digit fewer than a, so from 128-limb operands the
    # subtractions strip their result to 127 limbs
    c = parse_magnitude("9" + "0" * (digits - 1))
    made = [a, b, c]
    for x, y in ((a, b), (a, c), (a, a)):
        made += [subtract_parallel(x, y, 3)[0], subtract_sequential(x, y)]
    assert made[5].limb_count == -(-(digits - 1) // LIMB_DIGITS)
    limbs = list(a.limbs)
    made += [DecimalMagnitude(limbs), _magnitude_from_padded(np.array(limbs, dtype=np.int64))]
    for m in made:
        assert_storage_by_size(m)
        arr = limb_array(m)
        assert not arr.flags.writeable
        assert arr.tolist() == list(m.limbs)


@pytest.mark.parametrize("count", [1, 2, 127, 128, 129, 255, 256, 1000])
def test_format_paths_match_a_reference_at_every_lead_width(count):
    inner = [0, 1, 10**17, B1]
    rng = SplitMix64(count)
    for width in range(1, LIMB_DIGITS + 1):
        lead = 10 ** (width - 1) + int(rng.next_u64()) % (9 * 10 ** (width - 1))
        limbs = [lead] + [
            inner[i % 4] if i % 3 else int(rng.next_u64()) % LIMB_BASE for i in range(count - 1)
        ]
        want = ("%d" + "%018d" * (count - 1)) % tuple(limbs)
        assert len(want) == width + LIMB_DIGITS * (count - 1)
        # from either builder, a magnitude renders with `%` below 128
        # limbs and renders the array it kept from 128 limbs up
        built = _magnitude_from_padded(np.array(limbs, dtype=np.int64))
        for m in (DecimalMagnitude(limbs), built):
            assert format_magnitude(m) == want
            assert parse_magnitude(want) == m


def test_a_stripped_result_keeps_no_unstripped_array_alive():
    # 300-limb operands that share their 150 leading limbs: the 150-limb
    # difference keeps an array, which must own its memory
    a, b = parse_magnitude("7" * 5400), parse_magnitude("7" * 2700 + "1" * 2700)
    differences = [subtract_sequential(a, b)]
    differences += [subtract_parallel(a, b, w)[0] for w in (1, 2)]
    for m in differences:
        assert m.limb_count == 150
        assert m._array.base is None
        assert str(m) == "6" * 2700


def test_limbs_are_a_tuple_of_python_ints():
    # 4 limbs, then 130: below and above the size from which a parsed or
    # subtracted magnitude builds its tuple from the kept array
    for count in (4, 130):
        a = parse_magnitude("9" * ((count - 1) * LIMB_DIGITS + 5))
        b = parse_magnitude("1" + "0" * ((count - 2) * LIMB_DIGITS))
        for m in (a, b, subtract_sequential(a, b), subtract_parallel(a, b, 2)[0]):
            assert m.limb_count >= count - 1
            assert type(m.limbs) is tuple
            assert all(type(limb) is int for limb in m.limbs)


def test_a_parallel_operation_never_builds_the_limbs_tuple():
    rng = SplitMix64(8)
    digits = 300 * LIMB_DIGITS
    a = parse_magnitude("9" + gen_operand(digits - 1, rng))
    b = parse_magnitude("8" + gen_operand(digits - 1, rng))
    assert compare_magnitude(a, b) == 1
    difference = subtract_parallel(a, b, 2)[0]
    text = format_magnitude(difference)
    assert difference.limb_count >= 300
    for m in (a, b, difference):
        assert "limbs" not in m.__dict__
    for m in (a, b, difference):
        assert type(m.limbs) is tuple
        assert "limbs" in m.__dict__
        assert m.limbs is m.limbs
        assert all(type(limb) is int for limb in m.limbs)
        assert list(m.limbs) == limb_array(m).tolist()
    assert text == format_magnitude(subtract_sequential(a, b))


def _value(limbs):
    return functools.reduce(lambda v, limb: v * LIMB_BASE + limb, limbs, 0)


@settings(max_examples=60, deadline=None)
@given(
    limb_lists(128, 300),
    st.sampled_from(["first", "middle", "last", "none"]),
    boundary_limbs,
    st.booleans(),
    st.booleans(),
)
def test_compare_of_kept_arrays_matches_integer_order(limbs, where, new_limb, mixed, swap):
    other = list(limbs)
    if where != "none":
        i = {"first": 0, "middle": len(limbs) // 2, "last": len(limbs) - 1}[where]
        other[i] = max(new_limb, 1) if i == 0 else new_limb
    x = _magnitude_from_padded(np.array(limbs, dtype=np.int64))
    # a mixed pair sets a constructor-built magnitude, which holds its
    # tuple too, against one that holds only its array
    y = DecimalMagnitude(other) if mixed else _magnitude_from_padded(np.array(other, dtype=np.int64))
    if swap:
        x, y = y, x
    vx, vy = _value(limb_array(x).tolist()), _value(limb_array(y).tolist())
    assert compare_magnitude(x, y) == (vx > vy) - (vx < vy)
    if not mixed:
        assert "limbs" not in x.__dict__ and "limbs" not in y.__dict__


@pytest.mark.parametrize("digits", [40, 127 * LIMB_DIGITS, 127 * LIMB_DIGITS + 1, 5000])
def test_pickle_and_deepcopy_rebuild_a_checked_magnitude(digits):
    m = parse_magnitude(gen_operand(digits, SplitMix64(digits)))
    text = format_magnitude(m)
    for dup in (pickle.loads(pickle.dumps(m)), copy.deepcopy(m), copy.copy(m)):
        assert dup == m and hash(dup) == hash(m)
        assert dup.limb_count == m.limb_count
        assert_storage_by_size(dup)
        arr = limb_array(dup)
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[-1] = LIMB_BASE + 7
        assert format_magnitude(dup) == text


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
