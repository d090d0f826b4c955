"""Acceptance suite: every criterion prints one PASS/FAIL/SKIP line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines live.
The random corpora are seeded, so every run checks identical inputs.
"""

import os
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

import bigsub
from bigsub import (
    OpCount,
    format_magnitude,
    parse_magnitude,
    subtract_digitwise,
    subtract_parallel,
    subtract_sequential,
)
from bigsub.bench import BenchCase, gen_operand, run_bench
from bigsub.magnitude import pad_to_length
from bigsub.rng import SplitMix64
from bigsub.selftest import borrow_free_pairs, directed_pairs, random_pairs

from test_rescan_reference import forced_borrow_pairs, subtract_rescan

CORPUS_SEED = 0xACCE5
CORPUS_SIZE = 10_000
WORKER_COUNTS = (1, 2, 3, 4, 8)


@contextmanager
def criterion(num, desc):
    t0 = time.perf_counter()
    try:
        yield
    except pytest.skip.Exception:
        print(f"\ncriterion {num:2d} SKIP: {desc}", flush=True)
        raise
    except BaseException:
        print(f"\ncriterion {num:2d} FAIL: {desc}", flush=True)
        raise
    print(f"\ncriterion {num:2d} PASS: {desc} [{time.perf_counter() - t0:.1f}s]", flush=True)


@pytest.fixture(scope="module")
def corpus():
    return directed_pairs() + random_pairs(CORPUS_SIZE, 4000, CORPUS_SEED)


@pytest.fixture(scope="module")
def solved_corpus(corpus):
    solved = []
    for a_text, b_text in corpus:
        a = parse_magnitude(a_text)
        b = parse_magnitude(b_text)
        solved.append((a, b, subtract_sequential(a, b)))
    return solved


def test_criterion_01_oracle_equivalence(corpus, solved_corpus):
    with criterion(1, f"sequential matches digit-wise reference on {len(corpus)} pairs"):
        t0 = time.perf_counter()
        for (a_text, b_text), (_, _, seq) in zip(corpus, solved_corpus):
            want = subtract_digitwise(a_text, b_text)
            assert format_magnitude(seq) == want, (a_text, b_text)
        elapsed = time.perf_counter() - t0
        assert elapsed < 60, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_02_parallel_equals_sequential(solved_corpus):
    with criterion(2, f"parallel bit-identical to sequential, workers {WORKER_COUNTS}"):
        t0 = time.perf_counter()
        for a, b, seq in solved_corpus:
            for w in WORKER_COUNTS:
                got, _ = subtract_parallel(a, b, w)
                assert got.limbs == seq.limbs
        elapsed = time.perf_counter() - t0
        assert elapsed < 120, f"budget exceeded: {elapsed:.1f}s"


def test_criterion_03_worst_case_iterations():
    with criterion(3, "ripple family takes exactly n-1 borrow-resolution passes"):
        for n in (2, 4, 16, 256, 55_556):  # the last is a 10^6-digit ripple
            a = parse_magnitude("1" + "0" * (18 * (n - 1)))
            b = parse_magnitude("1")
            result, stats = subtract_parallel(a, b, 4)
            assert stats.iterations - 1 == n - 1
            assert format_magnitude(result) == "9" * (18 * (n - 1))


def test_criterion_04_best_case_single_pass():
    with criterion(4, "borrow-free inputs finish after the initial pass"):
        for i, (a_text, b_text) in enumerate(borrow_free_pairs(300, 600, CORPUS_SEED + 4)):
            a, b = parse_magnitude(a_text), parse_magnitude(b_text)
            _, stats = subtract_parallel(a, b, WORKER_COUNTS[i % len(WORKER_COUNTS)])
            assert stats.iterations == 1


def test_criterion_05_basic_operation_count():
    with criterion(5, "borrow-free sequential runs exactly limb_count subtractions"):
        for a_text, b_text in borrow_free_pairs(300, 600, CORPUS_SEED + 5):
            a, b = parse_magnitude(a_text), parse_magnitude(b_text)
            ops = OpCount()
            subtract_sequential(a, b, ops)
            assert ops.limb_subtractions == a.limb_count
            assert ops.borrows == 0


def test_criterion_06_one_pass_equals_rescan_listing():
    with criterion(6, "one-pass borrow resolution limb-identical to re-scan reference"):
        count = 0
        for a_text, b_text in forced_borrow_pairs(1000, CORPUS_SEED + 6):
            a = parse_magnitude(a_text)
            b = parse_magnitude(b_text)
            want = subtract_rescan(list(a.limbs), pad_to_length(b, a.limb_count))
            got = subtract_sequential(a, b)
            k = len(want) - got.limb_count
            assert all(v == 0 for v in want[:k])
            assert tuple(want[k:]) == got.limbs
            count += 1
        assert count == 1000


@pytest.fixture(scope="module")
def scaling_rows():
    t0 = time.perf_counter()
    rows = []
    for digits in (100_000, 1_000_000):
        case = BenchCase(digits=digits, runs=5, workers=4, seed=CORPUS_SEED + digits)
        rows.extend(run_bench(case))
    return rows, time.perf_counter() - t0


def _median(values):
    values = sorted(values)
    mid = len(values) // 2
    return values[mid] if len(values) % 2 else (values[mid - 1] + values[mid]) / 2


def test_criterion_07_scaling_shape(scaling_rows):
    with criterion(7, "sequential 10^6 vs 10^5 digit time ratio lands in [5, 30]"):
        rows, elapsed = scaling_rows
        med = {
            digits: _median([r.seconds for r in rows if r.algo == "sequential" and r.digits == digits])
            for digits in (100_000, 1_000_000)
        }
        ratio = med[1_000_000] / med[100_000]
        print(f"\n  sequential medians: 1e5={med[100_000]:.4f}s 1e6={med[1_000_000]:.4f}s ratio={ratio:.1f}")
        assert 5 <= ratio <= 30, f"ratio {ratio:.2f} outside [5, 30]"
        assert elapsed < 300, f"bench took {elapsed:.0f}s"


def test_criterion_08_parallel_speedup(scaling_rows):
    with criterion(8, "parallel no slower than sequential at 10^6 digits (needs >= 4 cores)"):
        rows, _ = scaling_rows
        seq = _median([r.seconds for r in rows if r.algo == "sequential" and r.digits == 1_000_000])
        par = _median([r.seconds for r in rows if r.algo == "parallel" and r.digits == 1_000_000])
        speedup = seq / par
        print(f"\n  10^6 digits: sequential {seq:.4f}s, parallel {par:.4f}s, speedup {speedup:.2f}x")
        cores = os.cpu_count() or 1
        if cores < 4:
            pytest.skip(f"speedup assertion is stated for >=4 hardware cores; this host has {cores}")
        assert par <= seq, f"parallel median {par:.4f}s exceeds sequential {seq:.4f}s"


def test_criterion_09_codec_round_trip():
    with criterion(9, "parse/format round trip on 10,000 strings plus zero-injected forms"):
        rng = SplitMix64(CORPUS_SEED + 9)
        for i in range(10_000):
            digits = 1 + int(rng.next_u64()) % 1200
            text = gen_operand(digits, rng)
            m = parse_magnitude(text)
            assert format_magnitude(m) == text
            if i % 10 == 0:
                zeros = 1 + int(rng.next_u64()) % 40
                assert parse_magnitude("0" * zeros + text) == m


def test_criterion_10_cli_determinism(tmp_path):
    with criterion(10, "bench CSV byte-identical across runs, seconds column aside"):
        argv = [
            sys.executable, "-m", "bigsub", "bench",
            "--seed", "7", "--digits", "20000", "--runs", "2", "--emit-hash",
        ]
        # The child must import the same bigsub as this process, from src/ or an
        # installed copy, whichever directory pytest was launched from.
        pkg_parent = str(Path(bigsub.__file__).resolve().parents[1])
        inherited = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [pkg_parent, inherited])))
        outs = []
        for _ in range(2):
            proc = subprocess.run(
                argv, capture_output=True, text=True, cwd=tmp_path, env=env, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            outs.append(proc.stdout)

        def strip_seconds(text):
            return ["," .join(line.split(",")[:4] + line.split(",")[5:]) for line in text.splitlines()]

        assert strip_seconds(outs[0]) == strip_seconds(outs[1])
        hashes = {line.split(",")[6] for line in outs[0].splitlines()[1:]}
        assert len(hashes) == 1  # sequential and parallel agree
