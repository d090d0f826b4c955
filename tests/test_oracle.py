import pathlib

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bigsub import EmptyInput, InvalidDigit, NegativeResult, subtract_digitwise


def test_subtract_examples():
    assert subtract_digitwise("1000", "1") == "999"
    assert subtract_digitwise("7", "7") == "0"
    s = "12345678909876543211234567890987654321"
    assert subtract_digitwise(s, "0") == s


def test_errors():
    with pytest.raises(NegativeResult):
        subtract_digitwise("1", "2")
    with pytest.raises(InvalidDigit):
        subtract_digitwise("12", "1x")
    with pytest.raises(EmptyInput):
        subtract_digitwise("", "1")


ints = st.integers(min_value=0, max_value=10**120)


@given(ints, ints)
def test_subtract_matches_int(x, y):
    hi, lo = max(x, y), min(x, y)
    assert subtract_digitwise(str(hi), str(lo)) == str(hi - lo)


@given(ints, ints, st.integers(min_value=0, max_value=5))
def test_zero_padded_minuend_matches_int(x, y, pad):
    hi, lo = max(x, y), min(x, y)
    assert subtract_digitwise("0" * pad + str(hi), str(lo)) == str(hi - lo)


def test_oracle_is_independent_of_limb_modules():
    source = (pathlib.Path(__file__).parent.parent / "src" / "bigsub" / "oracle.py").read_text()
    for module in ("magnitude", "sequential", "parallel", "numpy"):
        assert module not in source
