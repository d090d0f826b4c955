"""Multi-worker subtraction with speculative borrows.

The limbs are split into contiguous chunks, one per worker.  In the
initial pass each chunk, in a thread of its own, subtracts its limbs;
where a limb would underflow it speculates that a borrow is available,
corrects the limb by +10^18, and flags the next more significant limb.
Resolution passes then run in the calling thread, consuming the flagged
borrows and possibly flagging new ones, until no flag is left.

The flags are held as a frontier: the sorted flagged limb indices.  In
the initial pass each chunk writes only its own result limbs
and its own part of the frontier, and the parts joined in chunk order are
the whole frontier.  The borrows are double-buffered: a resolution pass
reads the frontier the previous pass wrote and builds a new one for the
next pass, so the outcome is independent of the chunk count and of the
order chunks run in, and a pass costs what it flags, not what the number
has.  Each resolution kernel takes one frontier type: resolve_frontier an
int64 array, resolved by numpy, and resolve_few a list of Python ints,
resolved limb by limb through a memoryview of the result array, since
numpy's fixed cost per call would dominate a pass over a few flags (a
ripple's one, say).  A pass raises at most one flag per flag it reads, so
a frontier never grows: subtract_parallel runs array passes while it
holds more than _FEW_FLAGS flags, then turns it into a list once.

A borrow out of limb 0, the most significant, has no limb to land in: it
happens iff a < b, and either pass raises NegativeResult there.  So, as
in the sequential algorithm, the sign needs no comparison up front.

BorrowBoard, has_pending_borrows, initial_pass and borrow_pass are the
same kernels seen through dense per-limb boards.  subtract_parallel uses
none of them; they stay only because benchmark/replay.py imports them,
and go when the benchmark follows the frontier (ROADMAP items 1 and 2).
"""

import threading
from dataclasses import dataclass

import numpy as np

from .errors import IterationLimitExceeded, NegativeResult
from .magnitude import (
    LIMB_BASE,
    DecimalMagnitude,
    _magnitude_from_padded,
    limb_array,
)

_BASE64 = np.int64(LIMB_BASE)
# a name, not LIMB_BASE - 1 in the loop: that would build a new int on
# every borrow that crosses a zero limb
_LIMB_MAX = LIMB_BASE - 1


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
    their left neighbours, sorted: the flags they raise.  Limb 0 has no
    left neighbour, so its underflow means a < b and raises NegativeResult."""
    if under.size:
        if start == 0 and under[0] == 0:
            raise NegativeResult("minuend is smaller than subtrahend")
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
    neighbour to flag: it means a < b and raises NegativeResult.
    """
    s, e = chunk.start, chunk.stop
    out = result_limbs[s:e]
    np.subtract(a_limbs[s:e], b_limbs[s:e], out=out)
    return _lend(out, s, (out < 0).nonzero()[0])


# Frontiers of at most this many flags are lists resolved limb by limb on
# Python ints through a memoryview, larger ones arrays resolved by numpy,
# whose fixed cost of a few µs per pass only pays off above it.  One pass,
# half of the flagged limbs zero, pinned to either CPU of a 2-vCPU Xeon
# (Python 3.11.7, numpy 2.4.6): the median over 21 rounds of the time
# ratio, resolve_few on a memoryview against the numpy body (each timed as
# the median of 41 calls), read 0.09 / 0.40-0.46 / 0.68-0.79 / 0.82-0.94 /
# 0.88-1.09 / 1.18-1.36 at 1 / 16 / 32 / 40 / 48 / 64 flags; at 40 flags
# the bodies took 5.3-8.7 µs against 5.6-10.7 µs.  So they cross at 40-48
# flags, and passes of 41-48 flags, about as fast either way, go to numpy.
_FEW_FLAGS = 40


def resolve_frontier(result_limbs: np.ndarray, frontier: np.ndarray) -> np.ndarray:
    """Resolution pass: apply the borrows at `frontier`, the sorted unique
    limb indices the previous pass flagged, as an int64 array, and return
    the next frontier, also an int64 array.

    A flagged limb is decremented; a flagged zero limb becomes 10^18 - 1
    and passes the borrow further left; at limb 0 that means a < b and
    raises NegativeResult.  Unflagged limbs are untouched.
    """
    result_limbs[frontier] -= 1
    return _lend(result_limbs, 0, frontier[result_limbs[frontier] < 0])


def resolve_few(limbs: memoryview, frontier: list[int]) -> list[int]:
    """resolve_frontier's pass over a list frontier of Python ints, limb by
    limb: `limbs` is a writable memoryview of the int64 result limbs, and
    the next frontier is a list."""
    following = []
    for i in frontier:
        limb = limbs[i]
        if limb:
            limbs[i] = limb - 1
        elif i:
            limbs[i] = _LIMB_MAX
            following.append(i - 1)
        else:
            raise NegativeResult("minuend is smaller than subtrahend")
    return following


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


def _pass_limit(passes: int, n: int) -> IterationLimitExceeded:
    return IterationLimitExceeded(
        f"borrows still pending after {passes} passes over {n} limbs"
    )


def subtract_parallel(
    a: DecimalMagnitude,
    b: DecimalMagnitude,
    workers: int,
) -> tuple[DecimalMagnitude, IterationStats]:
    """Compute a - b over `workers` limb chunks; raises NegativeResult
    when a < b.

    Returns the difference (bit-identical to subtract_sequential for any
    worker count) and the pass statistics.  Each chunk's initial pass
    runs in a thread of its own, and the first exception raised there is
    re-raised here; a thread that cannot start raises MemoryError, once
    the threads that did start have finished.  The resolution passes run
    in the calling thread: resolve_frontier while the frontier holds more
    than _FEW_FLAGS flags, then, after the one conversion of the frontier
    to a list, resolve_few on one memoryview of the result limbs, which
    the call releases before it returns or raises.  Total passes are
    hard-capped at the limb count, beyond which IterationLimitExceeded
    signals corruption.
    """
    n = a.limb_count
    chunks = partition_limbs(n, workers)
    # magnitudes are canonical, so a longer b is a larger one; otherwise
    # a < b shows as a borrow out of limb 0
    if b.limb_count > n:
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
    except RuntimeError as exc:
        # Thread.start's "can't start new thread": out of a resource, as
        # gen_operand reports an operand too long to allocate
        raise MemoryError(str(exc)) from None
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
    while len(frontier) > _FEW_FLAGS:
        if passes >= n:
            raise _pass_limit(passes, n)
        passes += 1
        frontier = resolve_frontier(result_limbs, frontier)
    frontier = frontier.tolist()
    # one view serves every list pass; it is released before the result
    # array turns read-only, and when a pass raises
    with memoryview(result_limbs) as limbs:
        while frontier:
            if passes >= n:
                raise _pass_limit(passes, n)
            passes += 1
            frontier = resolve_few(limbs, frontier)
    result = _magnitude_from_padded(result_limbs)
    return result, IterationStats(passes, n, len(chunks))
