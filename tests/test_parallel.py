import gc
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bigsub import (
    LIMB_BASE,
    BorrowExhausted,
    IterationStats,
    NegativeResult,
    compare_magnitude,
    format_magnitude,
    parse_magnitude,
    subtract_parallel,
    subtract_sequential,
)
from bigsub.errors import IterationLimitExceeded
from bigsub.parallel import (
    borrow_pass,
    has_pending_borrows,
    initial_frontier,
    initial_pass,
    partition_limbs,
    resolve_frontier,
)
from bigsub.rng import SplitMix64

B1 = LIMB_BASE - 1


def arr(values, dtype=np.int64):
    return np.array(values, dtype=dtype)


# ---- partition_limbs ----------------------------------------------------


def test_partition_examples():
    assert [(c.start, c.stop) for c in partition_limbs(4, 2)] == [(0, 2), (2, 4)]
    assert [(c.start, c.stop) for c in partition_limbs(5, 2)] == [(0, 3), (3, 5)]
    assert [(c.start, c.stop) for c in partition_limbs(2, 8)] == [(0, 1), (1, 2)]


@given(st.integers(min_value=1, max_value=400), st.integers(min_value=1, max_value=500))
def test_partition_covers_disjointly(n, w):
    chunks = partition_limbs(n, w)
    assert len(chunks) == min(n, w)
    assert chunks[0].start == 0 and chunks[-1].stop == n
    sizes = []
    for prev, nxt in zip(chunks, chunks[1:]):
        assert prev.stop == nxt.start
    for c in chunks:
        assert c.stop > c.start
        sizes.append(c.stop - c.start)
    assert max(sizes) - min(sizes) <= 1


# ---- initial_pass --------------------------------------------------------


def test_initial_pass_speculates_on_underflow():
    result = np.empty(2, dtype=np.int64)
    board = np.zeros(2, dtype=np.uint8)
    initial_pass(range(2), arr([5, 3]), arr([2, 9]), result, board)
    assert result.tolist() == [3, LIMB_BASE - 6]
    assert board.tolist() == [1, 0]


def test_initial_pass_no_borrows():
    result = np.empty(2, dtype=np.int64)
    board = np.zeros(2, dtype=np.uint8)
    initial_pass(range(2), arr([7, 7]), arr([7, 7]), result, board)
    assert result.tolist() == [0, 0]
    assert board.tolist() == [0, 0]


def test_initial_pass_borrow_out_of_low_limb():
    # the pass itself leaves the flagged high limb untouched; the pending
    # borrow is repaid in a later pass
    result = np.empty(2, dtype=np.int64)
    board = np.zeros(2, dtype=np.uint8)
    initial_pass(range(2), arr([9, 0]), arr([0, 1]), result, board)
    assert result.tolist() == [9, B1]
    assert board.tolist() == [1, 0]
    # end to end the same operands give 9*10^18 - 1
    got, _ = subtract_parallel(parse_magnitude("9" + "0" * 18), parse_magnitude("1"), 2)
    assert format_magnitude(got) == "8" + "9" * 18


def test_initial_pass_speculative_limb_value():
    # low limbs 88 - 99 borrow from the limb above: 10^18 + 88 - 99
    result = np.empty(2, dtype=np.int64)
    board = np.zeros(2, dtype=np.uint8)
    initial_pass(range(2), arr([1, 88]), arr([0, 99]), result, board)
    assert result[1] == 999999999999999989
    assert board.tolist() == [1, 0]


def test_initial_pass_underflow_at_top_limb_raises():
    result = np.empty(2, dtype=np.int64)
    board = np.zeros(2, dtype=np.uint8)
    with pytest.raises(BorrowExhausted):
        initial_pass(range(2), arr([3, 9]), arr([5, 1]), result, board)


# ---- borrow_pass ---------------------------------------------------------


def test_borrow_pass_simple_decrement():
    result = arr([4, 0, 5])
    write = np.zeros(3, dtype=np.uint8)
    borrow_pass(range(3), result, arr([0, 0, 1], np.uint8), write)
    assert result.tolist() == [4, 0, 4]
    assert write.tolist() == [0, 0, 0]


def test_borrow_pass_ripples_through_zero_limbs():
    result = arr([4, 0, 0])
    read = arr([0, 0, 1], np.uint8)
    write = np.zeros(3, dtype=np.uint8)
    borrow_pass(range(3), result, read, write)
    assert result.tolist() == [4, 0, B1]
    assert write.tolist() == [0, 1, 0]
    read, write = write, read
    write[:] = 0
    borrow_pass(range(3), result, read, write)
    assert result.tolist() == [4, B1, B1]
    assert write.tolist() == [1, 0, 0]
    read, write = write, read
    write[:] = 0
    borrow_pass(range(3), result, read, write)
    assert result.tolist() == [3, B1, B1]
    assert write.tolist() == [0, 0, 0]


def test_borrow_pass_clean_board_is_fixed_point():
    result = arr([4, 0, 0])
    write = np.zeros(3, dtype=np.uint8)
    borrow_pass(range(3), result, np.zeros(3, dtype=np.uint8), write)
    assert result.tolist() == [4, 0, 0]
    assert write.tolist() == [0, 0, 0]


def test_borrow_pass_emission_past_top_limb_raises():
    result = arr([0, 5])
    with pytest.raises(BorrowExhausted):
        borrow_pass(range(2), result, arr([1, 0], np.uint8), np.zeros(2, dtype=np.uint8))


@st.composite
def flagged_limbs(draw):
    """Result limbs and a read board of one length in [1, 60]: the length
    is drawn first, since st.lists alone seldom draws long lists."""
    n = draw(st.integers(1, 60))
    limb = st.sampled_from([0, 1, B1]) | st.integers(0, B1)
    return draw(st.lists(limb, min_size=n, max_size=n)), draw(
        st.lists(st.booleans(), min_size=n, max_size=n)
    )


@given(flagged_limbs(), st.integers(1, 5))
def test_borrow_pass_matches_a_per_limb_model(limbs_and_flags, w):
    limbs, flags = limbs_and_flags
    n = len(limbs)
    want, want_write, exhausted = list(limbs), [0] * n, False
    for i in range(n):
        if flags[i] and limbs[i]:
            want[i] -= 1
        elif flags[i] and i == 0:
            exhausted = True
        elif flags[i]:
            want[i], want_write[i - 1] = B1, 1
    result, read = arr(limbs), arr(flags, np.uint8)
    write = np.zeros(n, dtype=np.uint8)
    chunks = partition_limbs(n, w)
    sparse, frontier = arr(limbs), np.flatnonzero(flags)
    if exhausted:
        with pytest.raises(BorrowExhausted):
            for c in chunks:
                borrow_pass(c, result, read, write)
        with pytest.raises(BorrowExhausted):
            resolve_frontier(sparse, frontier)
        return
    for c in chunks:
        borrow_pass(c, result, read, write)
    assert result.tolist() == want
    assert write.tolist() == want_write
    assert read.tolist() == [int(f) for f in flags]
    following = resolve_frontier(sparse, frontier)
    assert sparse.tolist() == want
    assert following.tolist() == np.flatnonzero(want_write).tolist()
    assert frontier.tolist() == np.flatnonzero(flags).tolist()


# ---- has_pending_borrows -------------------------------------------------


def test_has_pending_borrows():
    assert not has_pending_borrows(np.zeros(3, dtype=np.uint8))
    assert has_pending_borrows(arr([0, 1, 0], np.uint8))
    assert has_pending_borrows(arr([1, 0, 0], np.uint8))


# ---- subtract_parallel ---------------------------------------------------


WORKER_COUNTS = (1, 2, 3, 4, 8)


def test_matches_sequential_on_random_pairs():
    rng = SplitMix64(0xDECAF)
    for trial in range(150):
        digits = 1 + int(rng.next_u64()) % 400
        x = "".join(str(int(v) % 10) for v in rng.next_block(digits))
        y = "".join(str(int(v) % 10) for v in rng.next_block(digits))
        a, b = parse_magnitude(x), parse_magnitude(y)
        if compare_magnitude(a, b) < 0:
            a, b = b, a
        want = subtract_sequential(a, b)
        got, stats = subtract_parallel(a, b, WORKER_COUNTS[trial % 5])
        assert got.limbs == want.limbs
        assert 1 <= stats.iterations <= stats.limb_count


def test_result_and_stats_independent_of_worker_count():
    a = parse_magnitude("1" + "23" * 40)
    b = parse_magnitude("9" * 61)
    outcomes = {w: subtract_parallel(a, b, w) for w in WORKER_COUNTS}
    limbs = {r.limbs for r, _ in outcomes.values()}
    iters = {s.iterations for _, s in outcomes.values()}
    assert len(limbs) == 1
    assert len(iters) == 1
    assert limbs.pop() == subtract_sequential(a, b).limbs


def test_worst_case_ripple_iterations():
    for n in (2, 4, 16):
        a = parse_magnitude("1" + "0" * (18 * (n - 1)))
        result, stats = subtract_parallel(a, parse_magnitude("1"), 4)
        assert stats.iterations == n  # initial pass + n-1 resolution passes
        assert format_magnitude(result) == "9" * (18 * (n - 1))


def test_best_case_single_iteration():
    a = parse_magnitude("9876" * 20)
    b = parse_magnitude("1032" * 20)
    result, stats = subtract_parallel(a, b, 3)
    assert stats.iterations == 1
    assert result.limbs == subtract_sequential(a, b).limbs


def test_negative_rejected_and_workers_validated():
    with pytest.raises(NegativeResult):
        subtract_parallel(parse_magnitude("3"), parse_magnitude("5"), 2)
    with pytest.raises(ValueError):
        subtract_parallel(parse_magnitude("5"), parse_magnitude("3"), 0)


def test_zero_and_identity():
    a = parse_magnitude("123" * 30)
    zero = parse_magnitude("0")
    assert subtract_parallel(a, a, 4)[0].limbs == (0,)
    assert subtract_parallel(a, zero, 4)[0].limbs == a.limbs
    seven = parse_magnitude("7")
    for w in range(1, 5):
        for x in (seven, zero):
            result, stats = subtract_parallel(x, x, w)
            assert result.limbs == (0,)
            assert str(result) == "0"
            assert stats.iterations == 1


def test_iteration_stats_invariant():
    with pytest.raises(ValueError):
        IterationStats(iterations=0, limb_count=4, workers=1)
    with pytest.raises(ValueError):
        IterationStats(iterations=5, limb_count=4, workers=1)


def test_worker_errors_propagate_without_deadlock(monkeypatch):
    import bigsub.parallel as par_mod

    def exploding(chunk, a, b, result):
        raise BorrowExhausted(chunk.start)

    monkeypatch.setattr(par_mod, "initial_frontier", exploding)
    with pytest.raises(BorrowExhausted):
        subtract_parallel(parse_magnitude("100"), parse_magnitude("1"), 4)


def test_concurrent_callers_get_independent_results():
    import threading

    a = parse_magnitude("1" + "0" * 180)
    b = parse_magnitude("1")
    want = subtract_sequential(a, b).limbs
    results = [None] * 6

    def call(slot):
        results[slot] = subtract_parallel(a, b, 1 + slot)[0].limbs

    threads = [threading.Thread(target=call, args=(i,)) for i in range(6)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert all(r == want for r in results)


def test_successful_calls_leave_no_reference_cycles():
    # a call's arrays must be freed when it returns, not when the cyclic
    # collector next runs
    borrow_free = (parse_magnitude("9876" * 20), parse_magnitude("1032" * 20))
    ripple = (parse_magnitude("1" + "0" * 90), parse_magnitude("1"))
    gc.collect()
    gc.disable()
    try:
        for w in (1, 2, 4):
            assert subtract_parallel(*borrow_free, w)[1].iterations == 1
            assert subtract_parallel(*ripple, w)[1].iterations == 6
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_failed_calls_leave_no_reference_cycles(monkeypatch):
    # a failed call's arrays must be freed with its exception, not when the
    # cyclic collector next runs
    import bigsub.parallel as par_mod

    class WorkerDied(BaseException):
        pass

    ripple = (parse_magnitude("1" + "0" * 90), parse_magnitude("1"))
    for failure in (BorrowExhausted, WorkerDied):

        def failing(chunk, a, b, result, failure=failure):
            raise failure(chunk.start)

        monkeypatch.setattr(par_mod, "initial_frontier", failing)
        gc.collect()
        gc.disable()
        try:
            for w in (1, 2, 4):
                try:
                    subtract_parallel(*ripple, w)
                except (BorrowExhausted, WorkerDied):
                    pass
                else:
                    pytest.fail("the patched initial_frontier did not fail the call")
            assert gc.collect() == 0
        finally:
            gc.enable()


def test_pass_cap_guard_reports_corruption(monkeypatch):
    import bigsub.parallel as par_mod

    def never_drains(result, frontier):
        return frontier

    monkeypatch.setattr(par_mod, "resolve_frontier", never_drains)
    with pytest.raises(IterationLimitExceeded):
        subtract_parallel(parse_magnitude("1" + "0" * 36), parse_magnitude("1"), 2)


def test_base_exception_in_one_worker_cannot_hang_the_pool(monkeypatch):
    import threading

    import bigsub.parallel as par_mod

    class WorkerDied(BaseException):
        pass

    real_initial_frontier = par_mod.initial_frontier
    second = partition_limbs(6, 4)[1].start

    def dies_in_worker_1(chunk, a, b, result):
        if chunk.start == second:
            raise WorkerDied
        return real_initial_frontier(chunk, a, b, result)

    monkeypatch.setattr(par_mod, "initial_frontier", dies_in_worker_1)
    seen = []

    def call():
        try:
            subtract_parallel(parse_magnitude("1" + "0" * 90), parse_magnitude("1"), 4)
        except BaseException as exc:
            seen.append(exc)

    caller = threading.Thread(target=call, daemon=True)
    caller.start()
    caller.join(timeout=10)
    assert not caller.is_alive()
    assert len(seen) == 1 and isinstance(seen[0], WorkerDied)


@pytest.mark.parametrize("worker_fails", [False, True])
def test_failed_thread_start_releases_the_started_workers(monkeypatch, worker_fails):
    # a worker thread that cannot start: the started workers must be
    # joined, and the start failure reported, also when a started worker
    # failed meanwhile
    import bigsub.parallel as par_mod

    real_start = threading.Thread.start
    limb_starts = []

    def start(thread):
        if thread.name.startswith("limb-"):
            limb_starts.append(thread.name)
            if len(limb_starts) == 2:
                raise RuntimeError("can't start new thread")
        real_start(thread)

    def fails_in_worker_0(chunk, a, b, result):
        raise BorrowExhausted(chunk.start)

    monkeypatch.setattr(threading.Thread, "start", start)
    if worker_fails:
        monkeypatch.setattr(par_mod, "initial_frontier", fails_in_worker_0)
    seen = []

    def call():
        try:
            subtract_parallel(parse_magnitude("1" + "0" * 90), parse_magnitude("1"), 4)
        except BaseException as exc:
            # keep no reference to exc: its traceback reaches this frame
            seen.append((type(exc), str(exc)))

    caller = threading.Thread(target=call, daemon=True)
    gc.collect()
    gc.disable()
    try:
        caller.start()
        caller.join(timeout=10)
        assert not caller.is_alive()
        assert seen == [(RuntimeError, "can't start new thread")]
        assert limb_starts == ["limb-0", "limb-1"]
        assert not [t.name for t in threading.enumerate() if t.name.startswith("limb-")]
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_initial_passes_run_in_chunk_threads_and_borrow_passes_in_the_caller(monkeypatch):
    import bigsub.parallel as par_mod

    real_initial, real_resolve = par_mod.initial_frontier, par_mod.resolve_frontier
    seen = []

    def recording_initial_frontier(chunk, *args):
        seen.append(("initial", chunk.start, threading.current_thread().name))
        return real_initial(chunk, *args)

    def recording_resolve_frontier(result, frontier):
        seen.append(("borrow", frontier.tolist(), threading.current_thread().name))
        return real_resolve(result, frontier)

    monkeypatch.setattr(par_mod, "initial_frontier", recording_initial_frontier)
    monkeypatch.setattr(par_mod, "resolve_frontier", recording_resolve_frontier)
    caller = threading.current_thread().name
    a, b = parse_magnitude("1" + "0" * 90), parse_magnitude("1")  # a 6-limb ripple
    for w in (1, 2, 4):
        seen.clear()
        result, stats = subtract_parallel(a, b, w)
        assert stats.iterations == 6 and result.limbs == subtract_sequential(a, b).limbs
        # one initial frontier per chunk, each in its chunk's thread, all
        # before the first resolution pass; then one resolution pass per
        # pass, each over the one limb the ripple has reached
        assert [kind for kind, _, _ in seen] == ["initial"] * w + ["borrow"] * 5
        initial = sorted((start, name) for kind, start, name in seen if kind == "initial")
        assert initial == [(c.start, f"limb-{k}") for k, c in enumerate(partition_limbs(6, w))]
        assert [(at, name) for kind, at, name in seen if kind == "borrow"] == [
            ([i], caller) for i in (4, 3, 2, 1, 0)
        ]


def test_subtract_parallel_uses_no_dense_board(monkeypatch):
    # the call holds its borrows as frontiers; the dense-board view of the
    # kernels, kept for the benchmark's replay, must not be reached
    import bigsub.parallel as par_mod

    rng = SplitMix64(0xF00D)
    x = "".join(str(int(v) % 10) for v in rng.next_block(900))
    y = "".join(str(int(v) % 10) for v in rng.next_block(900))
    pairs = {
        "ripple": (parse_magnitude("1" + "0" * (18 * 40)), parse_magnitude("1")),
        "random": (parse_magnitude("9" + x), parse_magnitude("1" + y)),
    }
    want = {(name, w): subtract_parallel(*pair, w)[1] for name, pair in pairs.items() for w in (1, 2, 4, 8)}
    assert {want["ripple", w] for w in (1, 2, 4, 8)} == {IterationStats(41, 41, w) for w in (1, 2, 4, 8)}
    assert all(want["random", w].iterations >= 2 for w in (1, 2, 4, 8))

    def dense(*args):
        raise AssertionError("subtract_parallel used a dense borrow board")

    for name in ("BorrowBoard", "has_pending_borrows", "initial_pass", "borrow_pass"):
        monkeypatch.setattr(par_mod, name, dense)
    for name, pair in pairs.items():
        for w in (1, 2, 4, 8):
            got, stats = subtract_parallel(*pair, w)
            assert got.limbs == subtract_sequential(*pair).limbs
            assert stats == want[name, w]


def test_limb_range_holds_after_every_pass():
    # worst-case ripple: step the passes by hand and check the range invariant
    n = 6
    a = np.zeros(n, dtype=np.int64)
    a[0] = 1
    b = np.zeros(n, dtype=np.int64)
    b[-1] = 1
    result = np.empty(n, dtype=np.int64)
    read = np.zeros(n, dtype=np.uint8)
    write = np.zeros(n, dtype=np.uint8)
    chunks = partition_limbs(n, 3)
    for c in chunks:
        initial_pass(c, a, b, result, write)
    sparse = np.empty(n, dtype=np.int64)
    frontier = np.concatenate([initial_frontier(c, a, b, sparse) for c in chunks])
    passes = 1
    while has_pending_borrows(write):
        assert ((result >= 0) & (result < LIMB_BASE)).all()
        assert (sparse == result).all()
        assert frontier.tolist() == np.flatnonzero(write).tolist()
        read, write = write, read
        write[:] = 0
        for c in chunks:
            borrow_pass(c, result, read, write)
        frontier = resolve_frontier(sparse, frontier)
        passes += 1
        assert passes <= n
    assert ((result >= 0) & (result < LIMB_BASE)).all()
    assert passes == n
    assert result.tolist() == [0] + [B1] * (n - 1)
    assert frontier.size == 0 and (sparse == result).all()


def test_single_writer_discipline():
    # run each chunk against a private write board; cell ownership must be
    # disjoint and the union must equal a whole-array pass
    rng = SplitMix64(0xBEEF)
    n = 64
    a = arr([int(v) % LIMB_BASE for v in rng.next_block(n)])
    b = arr([int(v) % LIMB_BASE for v in rng.next_block(n)])
    a[0] = LIMB_BASE - 1  # keep the top limb safe from underflow
    b[0] = 0
    chunks = partition_limbs(n, 5)
    boards = []
    result = np.empty(n, dtype=np.int64)
    for c in chunks:
        board = np.zeros(n, dtype=np.uint8)
        initial_pass(c, a, b, result, board)
        boards.append(set(np.flatnonzero(board).tolist()))
    for i in range(len(boards)):
        for j in range(i + 1, len(boards)):
            assert not (boards[i] & boards[j])
    combined = np.zeros(n, dtype=np.uint8)
    whole = np.empty(n, dtype=np.int64)
    initial_pass(range(n), a, b, whole, combined)
    assert set(np.flatnonzero(combined).tolist()) == set().union(*boards)
    assert (whole == result).all()
    # each chunk's initial frontier is sorted, unique and its own; in chunk
    # order the parts are the whole array's frontier
    parts = [initial_frontier(c, a, b, result) for c in chunks]
    for c, part in zip(chunks, parts):
        assert (np.diff(part) > 0).all()
        assert ((part >= c.start - 1) & (part < c.stop - 1)).all()
    assert np.concatenate(parts).tolist() == initial_frontier(range(n), a, b, whole).tolist()
    assert (whole == result).all()
