import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsub import (
    LIMB_BASE,
    DecimalMagnitude,
    NegativeResult,
    OpCount,
    format_magnitude,
    parse_magnitude,
    subtract_digitwise,
    subtract_sequential,
)
from bigsub.magnitude import _magnitude_from_ints

from test_int_oracle import limbs_value

B1 = LIMB_BASE - 1


def sub(a: str, b: str) -> str:
    return format_magnitude(subtract_sequential(parse_magnitude(a), parse_magnitude(b)))


def test_single_borrow_across_limb_boundary():
    assert sub("1000000000000000000", "1") == "999999999999999999"


def test_borrow_chain_across_zero_limbs():
    a = DecimalMagnitude((5, 0, 0, 3))
    b = DecimalMagnitude((4,))  # aligns under a's least-significant limb
    result = subtract_sequential(a, b)
    assert result.limbs == (4, B1, B1, B1)


def test_self_subtraction_is_zero():
    s = "12345678909876543211234567890987654321"
    assert sub(s, s) == "0"


def test_negative_result_rejected():
    with pytest.raises(NegativeResult):
        subtract_sequential(parse_magnitude("3"), parse_magnitude("5"))
    with pytest.raises(NegativeResult):
        subtract_sequential(parse_magnitude("99"), parse_magnitude("100"))


def test_inputs_not_mutated():
    a = parse_magnitude("1" + "0" * 36)
    b = parse_magnitude("999999999999999999")
    subtract_sequential(a, b)
    assert a.limbs == (1, 0, 0)
    assert b.limbs == (B1,)


def test_borrow_from_adjacent_limb():
    result = subtract_sequential(DecimalMagnitude((2, 7)), DecimalMagnitude((8,)))
    assert result.limbs == (1, B1)


def test_borrow_drains_top_limb():
    # the emptied lead limb is stripped
    result = subtract_sequential(DecimalMagnitude((1, 0)), DecimalMagnitude((1,)))
    assert result.limbs == (B1,)


limb_lists = st.lists(st.integers(min_value=0, max_value=B1), min_size=1, max_size=12)


@given(limb_lists, limb_lists)
def test_random_limb_lists_match_python_int(x, y):
    if limbs_value(x) < limbs_value(y):
        x, y = y, x
    a, b = _magnitude_from_ints(x), _magnitude_from_ints(y)
    result = subtract_sequential(a, b)
    assert limbs_value(result.limbs) == limbs_value(x) - limbs_value(y)
    assert all(0 <= v < LIMB_BASE for v in result.limbs)


ints = st.integers(min_value=0, max_value=10**300)


@given(ints, ints)
def test_matches_python_int(x, y):
    hi, lo = max(x, y), min(x, y)
    assert sub(str(hi), str(lo)) == str(hi - lo)


@settings(max_examples=200, deadline=None)
@given(ints, ints)
def test_matches_digitwise_reference(x, y):
    hi, lo = str(max(x, y)), str(min(x, y))
    assert sub(hi, lo) == subtract_digitwise(hi, lo)


@given(ints)
def test_identities(x):
    s = str(x)
    assert sub(s, "0") == s
    assert sub(s, s) == "0"


@given(ints, ints, st.integers(min_value=0, max_value=3), st.data())
def test_final_borrow_is_the_sign(x, gap, extra_limbs, data):
    # y > x; with extra_limbs > 0, y has more limbs than x
    low = data.draw(st.integers(min_value=0, max_value=LIMB_BASE**extra_limbs - 1))
    y = (x + 1 + gap) * LIMB_BASE**extra_limbs + low
    ops = OpCount()
    with pytest.raises(NegativeResult):
        subtract_sequential(parse_magnitude(str(x)), parse_magnitude(str(y)), ops)
    assert ops == OpCount()


def test_result_limbs_in_range():
    result = subtract_sequential(parse_magnitude("1" + "0" * 90), parse_magnitude("1"))
    assert all(0 <= v < LIMB_BASE for v in result.limbs)


def test_counter_on_borrow_free_input():
    a = parse_magnitude("9" * 100)
    b = parse_magnitude("1" * 100)
    ops = OpCount()
    subtract_sequential(a, b, ops)
    assert ops.limb_subtractions == a.limb_count
    assert ops.borrows == 0


def test_counter_with_borrows_still_one_sub_per_limb():
    a = parse_magnitude("1" + "0" * 54)
    ops = OpCount()
    subtract_sequential(a, parse_magnitude("1"), ops)
    assert ops.limb_subtractions == a.limb_count
    assert ops.borrows == 1
