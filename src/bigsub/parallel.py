"""Multi-worker subtraction with speculative borrows.

The limbs are split into contiguous chunks, one per worker.  In the
initial pass each chunk, in a thread of its own, subtracts its limbs;
where a limb would underflow it speculates that a borrow is available,
corrects the limb by +10^18, and flags the next more significant limb.
Resolution passes then run in the calling thread, consuming the flagged
borrows and possibly flagging new ones, until no flag is left.

The flags are held as a frontier: the sorted array of flagged limb
indices.  In the initial pass each chunk writes only its own result limbs
and its own part of the frontier, and the parts joined in chunk order are
the whole frontier.  The borrows are double-buffered: a resolution pass
reads the frontier the previous pass wrote and builds a new one for the
next pass, so the outcome is independent of the chunk count and of the
order chunks run in, and a pass costs what it flags, not what the number
has.

BorrowBoard, has_pending_borrows, initial_pass and borrow_pass are the
same kernels seen through dense per-limb boards.  subtract_parallel uses
none of them; they stay only because benchmark/replay.py imports them,
and go when the benchmark follows the frontier (ROADMAP items 1 and 5).
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import BorrowExhausted, IterationLimitExceeded, NegativeResult
from .magnitude import (
    LIMB_BASE,
    DecimalMagnitude,
    _canonical_array,
    _magnitude_from_array,
    compare_magnitude,
    limb_array,
)

_BASE64 = np.int64(LIMB_BASE)


@dataclass(frozen=True)
class IterationStats:
    """Passes executed, plus run geometry.

    iterations counts every pass including the initial subtraction pass,
    so borrow resolution took iterations - 1 extra sweeps.
    """

    iterations: int
    limb_count: int
    workers: int

    def __post_init__(self):
        if not 1 <= self.iterations <= self.limb_count:
            raise ValueError(
                f"iterations {self.iterations} outside [1, {self.limb_count}]"
            )


def partition_limbs(limb_count: int, workers: int) -> list[range]:
    """Split [0, limb_count) into contiguous chunks whose sizes differ by <= 1.

    The remainder goes to the earlier chunks.  More workers than limbs
    produces exactly limb_count single-limb chunks.
    """
    if limb_count < 1:
        raise ValueError("limb_count must be positive")
    if workers < 1:
        raise ValueError("workers must be positive")
    workers = min(workers, limb_count)
    base, extra = divmod(limb_count, workers)
    bounds = [w * base + min(w, extra) for w in range(workers + 1)]
    return [range(s, e) for s, e in zip(bounds, bounds[1:])]


def _lend(out: np.ndarray, start: int, under: np.ndarray) -> np.ndarray:
    """Add 10^18 to the limbs of chunk `out`, which starts at limb `start`,
    at the ascending offsets `under`, and return the global indices of
    their left neighbours, sorted: the flags they raise."""
    if under.size:
        if start == 0 and under[0] == 0:
            raise BorrowExhausted(0)
        out[under] += _BASE64
    return under + (start - 1)


def initial_frontier(
    chunk: range,
    a_limbs: np.ndarray,
    b_limbs: np.ndarray,
    result_limbs: np.ndarray,
) -> np.ndarray:
    """First pass over one chunk: subtract limbs, speculating on borrows.

    Underflowing limbs get +10^18 and flag their left neighbour.  Returns
    the chunk's part of the frontier, sorted and unique, inside
    [chunk.start - 1, chunk.stop - 1).  An underflow at limb 0 has no
    neighbour to flag and raises BorrowExhausted.
    """
    s, e = chunk.start, chunk.stop
    out = result_limbs[s:e]
    np.subtract(a_limbs[s:e], b_limbs[s:e], out=out)
    return _lend(out, s, (out < 0).nonzero()[0])


def resolve_frontier(result_limbs: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Resolution pass: apply the borrows at `frontier`, the sorted unique
    limb indices the previous pass flagged, and return the next frontier.

    A flagged limb is decremented; a flagged zero limb becomes 10^18 - 1
    and passes the borrow further left, or raises BorrowExhausted at limb
    0.  Unflagged limbs are untouched.
    """
    result_limbs[frontier] -= 1
    return _lend(result_limbs, 0, frontier[result_limbs[frontier] < 0])


class BorrowBoard:
    """Double-buffered per-limb borrow flags: the dense view of a frontier,
    kept only for benchmark/replay.py (see the module docstring).

    `read` holds flags produced by the previous pass, `write` collects
    flags for the next one.  Swap only once every chunk has finished a pass.
    """

    def __init__(self, limb_count: int):
        self.read = np.zeros(limb_count, dtype=np.uint8)
        self.write = np.zeros(limb_count, dtype=np.uint8)

    def swap_and_reset(self) -> None:
        self.read, self.write = self.write, self.read
        self.write[:] = 0


def has_pending_borrows(flags) -> bool:
    """True iff any borrow flag is set on a dense board (kept only for
    benchmark/replay.py)."""
    return bool(np.any(flags))


def initial_pass(chunk, a_limbs, b_limbs, result_limbs, write_board) -> None:
    """initial_frontier, flagging its frontier on a dense write board
    (kept only for benchmark/replay.py)."""
    write_board[initial_frontier(chunk, a_limbs, b_limbs, result_limbs)] = 1


def borrow_pass(chunk, result_limbs, read_board, write_board) -> None:
    """resolve_frontier on the flags of one chunk of a dense read board,
    flagging the next frontier on a dense write board (kept only for
    benchmark/replay.py)."""
    hits = read_board[chunk.start : chunk.stop].nonzero()[0] + chunk.start
    if hits.size:
        write_board[resolve_frontier(result_limbs, hits)] = 1


def subtract_parallel(
    a: DecimalMagnitude,
    b: DecimalMagnitude,
    workers: int,
) -> tuple[DecimalMagnitude, IterationStats]:
    """Compute a - b over `workers` limb chunks; requires a >= b.

    Returns the difference (bit-identical to subtract_sequential for any
    worker count) and the pass statistics.  Each chunk's initial pass
    runs in a thread of its own, and the first exception raised there is
    re-raised here.  The resolution passes run in the calling thread;
    total passes are hard-capped at the limb count, beyond which
    IterationLimitExceeded signals corruption.
    """
    n = a.limb_count
    chunks = partition_limbs(n, workers)
    if compare_magnitude(a, b) < 0:
        raise NegativeResult("minuend is smaller than subtrahend")
    a_arr = limb_array(a)
    b_arr = np.zeros(n, dtype=np.int64)
    b_arr[n - b.limb_count :] = limb_array(b)
    result_limbs = np.empty(n, dtype=np.int64)
    parts: list[np.ndarray | None] = [None] * len(chunks)
    errors: list[BaseException] = []

    def work(k: int, chunk: range) -> None:
        try:
            parts[k] = initial_frontier(chunk, a_arr, b_arr, result_limbs)
        except BaseException as exc:
            errors.append(exc)

    pool = [
        threading.Thread(target=work, args=(k, chunk), name=f"limb-{k}")
        for k, chunk in enumerate(chunks)
    ]
    try:
        for t in pool:
            t.start()
    finally:
        # Join every thread that runs, also when one could not start: that
        # failure is then the one reported.  A worker error's traceback
        # reaches work's frame and through it the `errors` cell, and once
        # raised here, this frame too: neither `errors` nor `failures` may
        # still hold it, or a failed call keeps its arrays in a cycle.
        for t in pool:
            if t.ident is not None:
                t.join()
        failures = errors[:1]
        errors.clear()
    if failures:
        raise failures.pop()
    # chunk order keeps the concatenated parts sorted and unique
    frontier = np.concatenate(parts)
    passes = 1
    while frontier.size:
        if passes >= n:
            raise IterationLimitExceeded(
                f"borrows still pending after {passes} passes over {n} limbs"
            )
        passes += 1
        frontier = resolve_frontier(result_limbs, frontier)
    result = _magnitude_from_array(_canonical_array(result_limbs))
    return result, IterationStats(passes, n, len(chunks))
