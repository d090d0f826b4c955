import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsub import (
    LIMB_BASE,
    BorrowExhausted,
    DecimalMagnitude,
    NegativeResult,
    OpCount,
    format_magnitude,
    parse_magnitude,
    subtract_digitwise,
    subtract_sequential,
)
from bigsub.sequential import borrow_from_left

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


def test_borrow_from_left_ripples_across_zeros():
    work = [5, 0, 0, 3]
    borrow_from_left(work, 3)
    assert work == [4, B1, B1, LIMB_BASE + 3]


def test_borrow_from_left_adjacent():
    work = [2, 7]
    borrow_from_left(work, 1)
    assert work == [1, LIMB_BASE + 7]


def test_borrow_from_left_drains_top_limb():
    work = [1, 0]
    borrow_from_left(work, 1)
    assert work == [0, LIMB_BASE]


def test_borrow_from_left_exhausted():
    with pytest.raises(BorrowExhausted):
        borrow_from_left([0, 0, 3], 2)


limb_lists = st.lists(st.integers(min_value=0, max_value=B1), min_size=2, max_size=12)


@given(limb_lists, st.data())
def test_borrow_from_left_preserves_value_and_bounds(work, data):
    i = data.draw(st.integers(min_value=1, max_value=len(work) - 1))
    if all(v == 0 for v in work[:i]):
        work[0] = 1 + work[0]
    before = sum(v * LIMB_BASE ** (len(work) - 1 - j) for j, v in enumerate(work))
    borrow_from_left(work, i)
    after = sum(v * LIMB_BASE ** (len(work) - 1 - j) for j, v in enumerate(work))
    assert before == after
    assert all(v < 2 * LIMB_BASE for v in work)


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
