"""Every borrow pattern of up to MAX_LIMBS limbs, at every worker count.

A limb pair's part in the borrow process depends only on d = a - b: it
generates a borrow (d < 0), propagates one (d = 0) or kills it (d > 0).
A limb receives at most one borrow, and a speculated limb d + 10^18 is at
least 1, so one pair per class reaches every kernel branch.  The
sequential borrow count also depends on whether the minuend limb is zero.
PAIRS covers all of it, so every sequence of its pairs is every pattern
of that length: the small-scope hypothesis (Jackson, "Software
Abstractions", 2006; Andoni et al., "Evaluating the Small Scope
Hypothesis", 2003).

From _ARRAY_MIN_LIMBS limbs up a magnitude holds an int64 array rather
than a tuple, so the short patterns are also run padded on the left
across that boundary.
"""

from itertools import product

import pytest

from bigsub import (
    LIMB_BASE,
    IterationStats,
    NegativeResult,
    OpCount,
    parse_magnitude,
    subtract_parallel,
    subtract_sequential,
)
from bigsub.magnitude import _ARRAY_MIN_LIMBS

# (a, b) limb pairs: two generate, two propagate, one kills; of each
# generating and propagating pair, one has a zero minuend limb
PAIRS = ((0, 1), (5, 7), (0, 0), (3, 3), (9, 2))
MAX_LIMBS = 5


def borrow_model(pattern):
    """The closed forms for a pattern of (a, b) limb pairs, most
    significant first: (negative, iterations, borrows).

    negative: limb 0 borrows out, so a < b.
    iterations: 1 + max(g(i) - i) over the limbs i that receive a borrow,
    where g(i) is the limb that generated it, or 1 if none receives one.
    borrows: the limbs that borrow out, less the zero minuend limbs that
    receive a borrow, which only pass on the one they received.
    """
    iterations, borrows = 1, 0
    source = None  # the generator of the borrow the next limb left receives
    for i in reversed(range(len(pattern))):
        a, b = pattern[i]
        if source is not None:
            iterations = max(iterations, 1 + source - i)
            borrows -= a == 0
        if a < b:
            source = i
        elif a > b:
            source = None
        borrows += source is not None
    return source is not None, iterations, borrows


def value(limbs):
    v = 0
    for limb in limbs:
        v = v * LIMB_BASE + limb
    return v


def test_borrow_model_on_hand_worked_patterns():
    # a ripple from the last limb to the first, stopped by a 1 minuend limb
    assert borrow_model([(1, 0), (0, 0), (0, 0), (0, 1)]) == (False, 4, 1)
    # two generators, the right one's borrow absorbed by the left one
    assert borrow_model([(9, 2), (5, 7), (0, 1)]) == (False, 2, 2)
    assert borrow_model([(3, 3), (0, 1)]) == (True, 2, 2)
    assert borrow_model([(9, 2)]) == (False, 1, 0)


def check_pattern(pattern, workers):
    """Both algorithms on one pattern against borrow_model, at each
    worker count; a result keeps an array iff it is long enough."""
    a_value, b_value = value(p[0] for p in pattern), value(p[1] for p in pattern)
    a, b = parse_magnitude(str(a_value)), parse_magnitude(str(b_value))
    negative, iterations, borrows = borrow_model(pattern)
    assert negative == (a_value < b_value)
    ops = OpCount()
    if negative:
        with pytest.raises(NegativeResult):
            subtract_sequential(a, b, ops)
        assert ops == OpCount()
        for w in workers:
            with pytest.raises(NegativeResult):
                subtract_parallel(a, b, w)
        return
    want = subtract_sequential(a, b, ops)
    assert value(want.limbs) == a_value - b_value
    assert (want._array is None) == (want.limb_count < _ARRAY_MIN_LIMBS)
    assert ops == OpCount(a.limb_count, borrows)
    for w in workers:
        got, stats = subtract_parallel(a, b, w)
        assert (got._array is None) == (got.limb_count < _ARRAY_MIN_LIMBS)
        assert got.limbs == want.limbs
        assert stats == IterationStats(iterations, a.limb_count, min(w, a.limb_count))


@pytest.mark.parametrize("n", range(1, MAX_LIMBS + 1))
def test_every_borrow_pattern_at_every_worker_count(n):
    for pattern in product(PAIRS, repeat=n):
        check_pattern(pattern, range(1, n + 1))


# a killing pair keeps the result as long as the operands; an equal pair
# lets it strip back across the boundary to the pattern's length
@pytest.mark.parametrize("pad", [(9, 2), (3, 3)], ids=["kill", "equal"])
@pytest.mark.parametrize("length", [_ARRAY_MIN_LIMBS - 1, _ARRAY_MIN_LIMBS, _ARRAY_MIN_LIMBS + 1])
def test_short_patterns_padded_across_the_array_boundary(length, pad):
    for n in range(1, 4):
        for tail in product(PAIRS, repeat=n):
            check_pattern((pad,) * (length - n) + tail, (1, 2, 3, 8))
