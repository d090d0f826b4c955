"""Built-in sanity suite behind the `selftest` CLI command.

Smaller and faster than the full test suite: checks both algorithms
against the digit-wise reference and confirms the iteration bounds of
the parallel scheme on its extreme inputs.
"""

from .bench import gen_ordered_pair
from .magnitude import format_magnitude, parse_magnitude
from .oracle import subtract_digitwise
from .parallel import _FEW_FLAGS, subtract_parallel
from .rng import SplitMix64
from .sequential import subtract_sequential

_SEED = 20260810
_WORKER_CYCLE = (1, 2, 3, 4, 8)


def directed_pairs() -> list[tuple[str, str]]:
    """Borrow-chain stress cases, each with a >= b: power-of-ten ripples,
    long zero runs, equal operands, zero subtrahends, all-nines,
    limb-boundary lengths and independent borrow chains of many lengths.
    Shared with the acceptance suite."""
    pairs = [
        ("1" + "0" * 54, "1"),
        ("1" + "0" * 90, "9" * 18),
        ("9" * 60, "9" * 60),
        ("9" * 60, "1"),
        ("12345678909876543211234567890987654321", "0"),
        ("12345678909876543211234567890987654321", "12345678909876543211234567890987654321"),
        ("1000000000000000000", "1"),
        ("1000000000000000000", "999999999999999999"),
        ("7", "7"),
        ("10", "9"),
        ("1", "0"),
    ]
    for k in (1, 2, 17, 18, 19, 36, 37, 54, 72, 90, 180, 900):
        pairs.append(("1" + "0" * k, "1"))  # full ripple
        pairs.append(("5" + "0" * k + "3", "4"))  # zero run
    for k in (1, 2, 17, 18, 19, 36, 54, 90, 180, 900):
        pairs.append(("1" + "0" * k, "9" * k))  # 10^k - (10^k - 1)
        pairs.append(("9" * (k + 1), "9" * (k + 1)))  # equal
        pairs.append(("9" * (k + 1), "0"))  # b = 0
    # 2 * _FEW_FLAGS independent borrow chains, each a 1 limb above z zero
    # limbs with the subtrahend's 1 under the last, in both orders: the
    # frontier starts above _FEW_FLAGS and loses one chain a pass, so a
    # parallel call runs both resolution kernels and switches between them
    chains = list(range(1, 2 * _FEW_FLAGS + 1))
    for lengths in (chains, chains[::-1]):
        a = "".join("%018d" % 1 + "0" * (18 * z) for z in lengths)
        b = "".join("0" * (18 * z) + "%018d" % 1 for z in lengths)
        pairs.append((a.lstrip("0"), b.lstrip("0")))
    return list(dict.fromkeys(pairs))


def random_pairs(count: int, max_digits: int, seed: int) -> list[tuple[str, str]]:
    """Seeded ordered pairs from gen_ordered_pair, 1 to max_digits digits
    long.  Shared with the acceptance suite."""
    rng = SplitMix64(seed)
    return [gen_ordered_pair(1 + int(rng.next_u64()) % max_digits, rng) for _ in range(count)]


def borrow_free_pairs(count: int, max_digits: int, seed: int) -> list[tuple[str, str]]:
    """Pairs where every minuend limb >= the aligned subtrahend limb:
    minuend digits 5-9, subtrahend digits 1-4, no longer than the minuend.
    Shared with the acceptance suite."""
    rng = SplitMix64(seed)
    pairs = []
    for _ in range(count):
        la = 1 + int(rng.next_u64()) % max_digits
        lb = 1 + int(rng.next_u64()) % la
        a = "".join(chr(ord("5") + int(v) % 5) for v in rng.next_block(la))
        b = "".join(chr(ord("1") + int(v) % 4) for v in rng.next_block(lb))
        pairs.append((a, b))
    return pairs


def run_selftest(echo=print) -> bool:
    ok = True

    pairs = directed_pairs() + random_pairs(300, 600, _SEED)
    checked = 0
    for idx, (a_text, b_text) in enumerate(pairs):
        a = parse_magnitude(a_text)
        b = parse_magnitude(b_text)
        want = subtract_digitwise(a_text, b_text)
        got_seq = format_magnitude(subtract_sequential(a, b))
        if got_seq != want:
            echo(f"FAIL oracle equivalence (sequential) on pair {idx}")
            ok = False
            continue
        workers = _WORKER_CYCLE[idx % len(_WORKER_CYCLE)]
        got_par, _ = subtract_parallel(a, b, workers)
        if format_magnitude(got_par) != want:
            echo(f"FAIL oracle equivalence (parallel, workers={workers}) on pair {idx}")
            ok = False
            continue
        checked += 1
    if checked == len(pairs):
        echo(f"ok: oracle equivalence on {checked} pairs")

    ripple_ok = True
    for n in (2, 4, 16, 256):
        a = parse_magnitude("1" + "0" * (18 * (n - 1)))
        b = parse_magnitude("1")
        result, stats = subtract_parallel(a, b, 4)
        if stats.iterations != n or format_magnitude(result) != "9" * (18 * (n - 1)):
            echo(f"FAIL worst-case iteration bound at {n} limbs")
            ripple_ok = False
    if ripple_ok:
        echo("ok: worst-case ripple takes limb_count - 1 resolution passes")
    ok = ok and ripple_ok

    borrow_free_ok = True
    for i, (big, small) in enumerate(borrow_free_pairs(50, 200, _SEED + 1)):
        _, stats = subtract_parallel(
            parse_magnitude(big), parse_magnitude(small), _WORKER_CYCLE[i % len(_WORKER_CYCLE)]
        )
        if stats.iterations != 1:
            echo(f"FAIL borrow-free input took {stats.iterations} passes")
            borrow_free_ok = False
    if borrow_free_ok:
        echo("ok: borrow-free inputs finish in a single pass")
    ok = ok and borrow_free_ok

    echo("selftest passed" if ok else "selftest FAILED")
    return ok
