"""Single-threaded replay of bigsub.parallel.subtract_parallel.

The replay runs the parallel module's public pieces (partition_limbs,
BorrowBoard, initial_pass, borrow_pass, has_pending_borrows) one chunk
after another, with the same operand-to-array conversion and
result-to-magnitude conversion subtract_parallel does.  Every pass reads
only the board the previous pass wrote, so the order of chunks within a
pass cannot change the outcome: the replay must give subtract_parallel's
limbs and pass count for every worker count.  The benchmark checks that,
and uses the replay to time each stage of a parallel call without
threads.
"""

import time
from dataclasses import dataclass

import numpy as np

from bigsub.errors import IterationLimitExceeded
from bigsub.magnitude import DecimalMagnitude, canonical_limbs
from bigsub.parallel import (
    BorrowBoard,
    borrow_pass,
    has_pending_borrows,
    initial_pass,
    partition_limbs,
)


@dataclass
class ReplayCounts:
    """Exact counts from replays, summed over calls.

    kernel_bytes is computed from array sizes, not measured: the initial
    pass reads a and b and writes the result (3 x 8 bytes per limb);
    every pass, initial included, has has_pending_borrows read the write
    board (1 byte per limb); every resolution pass zeroes the write board
    and reads the read board (2 bytes per limb) and reads and writes one
    int64 per flagged limb.
    """

    passes: int = 0
    flags_raised: int = 0
    boundary_crossings: int = 0
    chunk_passes: int = 0
    useful_chunk_passes: int = 0
    kernel_bytes: int = 0

    def after_pass(self, write_board, chunks) -> None:
        self.flags_raised += int(np.count_nonzero(write_board))
        # a flag at limb c.start - 1 was raised by limb c.start, which
        # belongs to the chunk to its right
        self.boundary_crossings += sum(int(write_board[c.start - 1]) for c in chunks[1:])
        self.kernel_bytes += len(write_board)

    def before_borrow_pass(self, read_board, chunks) -> None:
        self.chunk_passes += len(chunks)
        self.useful_chunk_passes += sum(
            1 for c in chunks if read_board[c.start : c.stop].any()
        )
        self.kernel_bytes += 2 * len(read_board) + 16 * int(np.count_nonzero(read_board))


def replay(a: DecimalMagnitude, b: DecimalMagnitude, workers: int, counts: ReplayCounts | None = None):
    """Compute a - b (a >= b) the way subtract_parallel does, in one thread.

    Returns (difference, passes, stamps).  stamps are perf_counter
    readings at: start, arrays built, initial pass done, borrows
    resolved, result listed, limbs canonical, magnitude built.  With
    `counts`, per-pass counting runs inside the pass loop, so the stamps
    of a counted replay include it.
    """
    t0 = time.perf_counter()
    n = a.limb_count
    a_arr = np.array(a.limbs, dtype=np.int64)
    b_arr = np.zeros(n, dtype=np.int64)
    b_arr[n - b.limb_count :] = b.limbs
    t1 = time.perf_counter()
    chunks = partition_limbs(n, workers)
    result = np.empty(n, dtype=np.int64)
    board = BorrowBoard(n)
    for chunk in chunks:
        initial_pass(chunk, a_arr, b_arr, result, board.write)
    if counts is not None:
        counts.kernel_bytes += 24 * n
        counts.after_pass(board.write, chunks)
    t2 = time.perf_counter()
    passes = 1
    while has_pending_borrows(board.write):
        if passes >= n:
            raise IterationLimitExceeded(f"borrows still pending after {passes} passes over {n} limbs")
        board.swap_and_reset()
        passes += 1
        if counts is not None:
            counts.before_borrow_pass(board.read, chunks)
        for chunk in chunks:
            borrow_pass(chunk, result, board.read, board.write)
        if counts is not None:
            counts.after_pass(board.write, chunks)
    t3 = time.perf_counter()
    limbs = result.tolist()
    t4 = time.perf_counter()
    canon = canonical_limbs(limbs)
    t5 = time.perf_counter()
    difference = DecimalMagnitude(canon)
    t6 = time.perf_counter()
    if counts is not None:
        counts.passes += passes
    return difference, passes, (t0, t1, t2, t3, t4, t5, t6)
