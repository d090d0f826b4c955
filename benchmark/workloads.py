"""Seeded operand pairs for the benchmark workloads.

Every pair is a tuple of two digit strings (a, b) with a >= b, fully
determined by the seed.  The program under test only ever sees these
strings.  `gen` is bigsub.bench.gen_operand, or a traced wrapper of it.
Sizes are keyword arguments so the tests can run each workload at a tiny
size; the benchmark uses the defaults.
"""

from bigsub.bench import gen_operand
from bigsub.magnitude import LIMB_DIGITS
from bigsub.rng import SplitMix64


def random_pairs(seed: int, gen=gen_operand, digits: int = 1_000_000) -> list[tuple[str, str]]:
    """One pair of random equal-length operands, ordered as
    bigsub.bench.gen_ordered_pair orders them.

    Both strings have the same length and a nonzero leading digit, so
    string order is numeric order and no parse is needed to swap.
    """
    rng = SplitMix64(seed)
    a = gen(digits, rng)
    b = gen(digits, rng)
    return [(a, b) if a >= b else (b, a)]


def ripple_pairs(seed: int, gen=gen_operand, zero_limbs: int = 4000) -> list[tuple[str, str]]:
    """The full borrow ripple: a = L * 10^(18 * zero_limbs), 1 <= b < 10^18.

    b's limb underflows against a zero limb, and the borrow crosses
    every zero limb before L pays it, so the parallel scheme needs
    exactly limb_count = zero_limbs + 1 passes.
    """
    rng = SplitMix64(seed)
    lead = gen(LIMB_DIGITS, rng)
    b = gen(LIMB_DIGITS, rng)
    return [(lead + "0" * (LIMB_DIGITS * zero_limbs), b)]


def small_many_pairs(
    seed: int, gen=gen_operand, count: int = 2000, max_digits: int = 2000
) -> list[tuple[str, str]]:
    """`count` short pairs: len(a) uniform in [1, max_digits], len(b)
    uniform in [1, len(a)], so most subtrahends need zero-padding.

    Equal lengths are ordered by string order, which is numeric order
    because gen_operand gives multi-digit operands a nonzero lead.
    """
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        len_a = 1 + rng.next_u64() % max_digits
        len_b = 1 + rng.next_u64() % len_a
        a = gen(len_a, rng)
        b = gen(len_b, rng)
        if len_a == len_b and a < b:
            a, b = b, a
        pairs.append((a, b))
    return pairs


WORKLOADS = {
    "random-1m": random_pairs,
    "ripple": ripple_pairs,
    "small-many": small_many_pairs,
}
