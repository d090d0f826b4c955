"""One-pass borrow resolution vs a re-scan reference.

The production subtraction carries one borrow bit in a single
right-to-left sweep.  The reference below instead deposits 10^18 one limb
at a time and re-checks the underflow condition from scratch, the most
literal rendition of pencil-and-paper borrowing.  Both must produce
identical limbs on any valid input, and the limbs where the reference has
to borrow at all are the borrows the production sweep counts.
"""

from bigsub import LIMB_BASE, OpCount, parse_magnitude, subtract_sequential
from bigsub.magnitude import pad_to_length
from bigsub.rng import SplitMix64
from bigsub.selftest import directed_pairs, random_pairs


def subtract_rescan(a_limbs: list[int], b_limbs: list[int]) -> list[int]:
    """Reference subtraction over equal-length aligned limb lists (a >= b)."""
    return rescan(a_limbs, b_limbs)[0]


def rescan(a_limbs: list[int], b_limbs: list[int]) -> tuple[list[int], int]:
    """The re-scan listing: result limbs, and the number of limbs whose
    underflow loop runs at least once."""
    work = list(a_limbs)
    result = [0] * len(work)
    borrows = 0
    for i in range(len(work) - 1, -1, -1):
        borrows += work[i] < b_limbs[i]
        while work[i] < b_limbs[i]:
            k = i - 1
            while True:
                assert k >= 0, "borrow walked past the most-significant limb"
                if work[k] != 0:
                    work[k] -= 1
                    work[k + 1] += LIMB_BASE
                    break
                k -= 1
        result[i] = work[i] - b_limbs[i]
    return result, borrows


def forced_borrow_pairs(count: int, seed: int):
    """Pairs whose subtraction must ripple borrows through zero runs."""
    rng = SplitMix64(seed)
    for _ in range(count):
        zeros = 1 + int(rng.next_u64()) % 120
        head = 1 + int(rng.next_u64()) % 9
        tail_len = 1 + int(rng.next_u64()) % 30
        tail = "".join(str(int(v) % 10) for v in rng.next_block(tail_len))
        a = f"{head}{'0' * zeros}{tail}"
        b_len = 1 + int(rng.next_u64()) % (len(a) - 1)
        b = "".join(str(int(v) % 10) for v in rng.next_block(b_len))
        yield a, b


def test_one_pass_matches_rescan_semantics():
    checked = 0
    for a_text, b_text in forced_borrow_pairs(1000, 0x5EED):
        a = parse_magnitude(a_text)
        b = parse_magnitude(b_text)
        want = subtract_rescan(list(a.limbs), pad_to_length(b, a.limb_count))
        got = subtract_sequential(a, b)
        # compare including leading zeros stripped by canonicalization
        k = len(want) - got.limb_count
        assert all(v == 0 for v in want[:k])
        assert tuple(want[k:]) == got.limbs
        checked += 1
    assert checked == 1000


def test_borrow_count_equals_rescan_underflow_limbs():
    pairs = (
        list(forced_borrow_pairs(1000, 0x5EED))
        + directed_pairs()
        + random_pairs(1000, 2000, 0xB0440)
    )
    for a_text, b_text in pairs:
        a = parse_magnitude(a_text)
        b = parse_magnitude(b_text)
        _, want = rescan(list(a.limbs), pad_to_length(b, a.limb_count))
        ops = OpCount()
        subtract_sequential(a, b, ops)
        assert ops.borrows == want, (a_text, b_text)
