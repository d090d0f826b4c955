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


@pytest.mark.parametrize("n", range(1, MAX_LIMBS + 1))
def test_every_borrow_pattern_at_every_worker_count(n):
    for pattern in product(PAIRS, repeat=n):
        a_value, b_value = value(p[0] for p in pattern), value(p[1] for p in pattern)
        a, b = parse_magnitude(str(a_value)), parse_magnitude(str(b_value))
        negative, iterations, borrows = borrow_model(pattern)
        assert negative == (a_value < b_value)
        ops = OpCount()
        if negative:
            with pytest.raises(NegativeResult):
                subtract_sequential(a, b, ops)
            assert ops == OpCount()
            for w in range(1, n + 1):
                with pytest.raises(NegativeResult):
                    subtract_parallel(a, b, w)
            continue
        want = subtract_sequential(a, b, ops)
        assert value(want.limbs) == a_value - b_value
        assert ops == OpCount(a.limb_count, borrows)
        for w in range(1, n + 1):
            got, stats = subtract_parallel(a, b, w)
            assert got.limbs == want.limbs
            assert stats == IterationStats(iterations, a.limb_count, min(w, a.limb_count))
