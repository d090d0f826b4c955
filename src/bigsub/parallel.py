"""Multi-worker subtraction with speculative borrows.

The limbs are split into contiguous chunks, one per worker.  In the
initial pass each chunk, in a thread of its own, subtracts its limbs;
where a limb would underflow it speculates that a borrow is available,
corrects the limb by +10^18, and flags the next more significant limb on
a shared borrow board.  Resolution passes then run chunk after chunk in
the calling thread, consuming the flagged borrows and possibly flagging
new ones, until the board is clean.  A pass changes only flagged limbs,
yet sweeps the whole board three times: in has_pending_borrows, in
swap_and_reset, and as each chunk scans its flags.

The board is double-buffered: a pass reads the flags the previous pass
wrote and writes flags for the next one, so the outcome is independent
of the chunk count and of the order chunks run in.  Result limbs and
write-board cells are each written by one chunk per pass.
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


class BorrowBoard:
    """Double-buffered per-limb borrow flags.

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
    """True iff any borrow flag is set."""
    return bool(np.any(flags))


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


def _lend(out: np.ndarray, start: int, under: np.ndarray, write_board: np.ndarray) -> None:
    """Add 10^18 to the limbs of chunk `out`, which starts at limb `start`,
    at the ascending offsets `under`, and flag their left neighbours."""
    if under.size:
        if start == 0 and under[0] == 0:
            raise BorrowExhausted(0)
        out[under] += _BASE64
        write_board[start + under - 1] = 1


def initial_pass(
    chunk: range,
    a_limbs: np.ndarray,
    b_limbs: np.ndarray,
    result_limbs: np.ndarray,
    write_board: np.ndarray,
) -> None:
    """First pass over one chunk: subtract limbs, speculating on borrows.

    Underflowing limbs get +10^18 and flag their left neighbour on the
    write board.  An underflow at limb 0 has no neighbour to flag and
    raises BorrowExhausted.
    """
    s, e = chunk.start, chunk.stop
    out = result_limbs[s:e]
    np.subtract(a_limbs[s:e], b_limbs[s:e], out=out)
    _lend(out, s, (out < 0).nonzero()[0], write_board)


def borrow_pass(
    chunk: range,
    result_limbs: np.ndarray,
    read_board: np.ndarray,
    write_board: np.ndarray,
) -> None:
    """Resolution pass over one chunk: apply the borrows flagged last pass.

    A flagged limb is decremented; a flagged zero limb becomes 10^18 - 1
    and passes the borrow further left, or raises BorrowExhausted at limb
    0.  Unflagged limbs are untouched.
    """
    s, e = chunk.start, chunk.stop
    hits = read_board[s:e].nonzero()[0]
    if hits.size:
        out = result_limbs[s:e]
        out[hits] -= 1
        _lend(out, s, hits[out[hits] < 0], write_board)


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
    board = BorrowBoard(n)
    errors: list[BaseException] = []

    def work(chunk: range) -> None:
        try:
            initial_pass(chunk, a_arr, b_arr, result_limbs, board.write)
        except BaseException as exc:
            errors.append(exc)

    pool = [
        threading.Thread(target=work, args=(chunk,), name=f"limb-{k}")
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
    passes = 1
    while has_pending_borrows(board.write):
        if passes >= n:
            raise IterationLimitExceeded(
                f"borrows still pending after {passes} passes over {n} limbs"
            )
        board.swap_and_reset()
        passes += 1
        for chunk in chunks:
            borrow_pass(chunk, result_limbs, board.read, board.write)
    result = _magnitude_from_array(_canonical_array(result_limbs))
    return result, IterationStats(passes, n, len(chunks))
