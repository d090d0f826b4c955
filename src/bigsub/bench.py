"""Benchmark harness: deterministic operands, timed runs, CSV rows.

Timing covers only the subtraction call.  Parsing, formatting,
verification, and hashing happen outside the timed region, because the
measured quantity is the limb algorithm, not string plumbing.
"""

import time
from dataclasses import dataclass, field

from .errors import VerificationFailure
from .magnitude import DecimalMagnitude, format_magnitude, parse_magnitude
from .oracle import subtract_digitwise
from .parallel import subtract_parallel
from .rng import SplitMix64
from .sequential import subtract_sequential

DEFAULT_DIGITS = (20_000, 100_000, 500_000, 1_000_000)
DEFAULT_RUNS = 5
DEFAULT_WORKERS = 4
DEFAULT_SEED = 42

CSV_HEADER = "algo,digits,workers,run,seconds,iterations,result_hash"

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class BenchCase:
    """One experiment row: operand length, repetitions, worker count, seed."""

    digits: int
    runs: int
    workers: int
    seed: int

    def __post_init__(self):
        if self.digits < 1:
            raise ValueError("operand length must be positive")
        if self.runs < 1:
            raise ValueError("runs must be positive")
        if self.workers < 1:
            raise ValueError("workers must be positive")
        if not 0 <= self.seed <= _MASK64:
            raise ValueError("seed must fit in 64 bits")


@dataclass(frozen=True)
class BenchRow:
    """One timed run of one algorithm."""

    algo: str
    digits: int
    workers: int
    run: int
    seconds: float
    iterations: int
    result_hash: str = ""


def gen_operand(digits: int, rng: SplitMix64) -> str:
    """Deterministic digit string: one generator draw per digit.

    The leading character is '1'-'9' (drawn as 1 + output mod 9) unless
    a single digit was asked for, where '0'-'9' (output mod 10) applies.
    """
    if digits < 1:
        raise ValueError("digits must be positive")
    outs = rng.next_block(digits)
    chars = (outs % 10).astype("uint8")
    chars += ord("0")
    if digits > 1:
        chars[0] = ord("1") + int(outs[0]) % 9
    return chars.tobytes().decode("ascii")


def gen_ordered_pair(digits: int, rng: SplitMix64) -> tuple[str, str]:
    """Two generated operands of the same length, swapped so a >= b."""
    a = gen_operand(digits, rng)
    b = gen_operand(digits, rng)
    if a < b:  # same length, so string order is numeric order
        a, b = b, a
    return a, b


def fnv1a64_hex(s: str) -> str:
    """64-bit FNV-1a of the string's ASCII bytes, as 16 lowercase hex chars."""
    h = _FNV_OFFSET
    for byte in s.encode("ascii"):
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return format(h, "016x")


def build_cases(
    digit_lengths,
    runs: int = DEFAULT_RUNS,
    workers: int = DEFAULT_WORKERS,
    seed: int = DEFAULT_SEED,
) -> list[BenchCase]:
    """One equal-length case per requested length, each with its own seed
    drawn from a master stream so the whole suite is fixed by one seed."""
    master = SplitMix64(seed)
    return [
        BenchCase(digits=d, runs=runs, workers=workers, seed=master.next_u64())
        for d in digit_lengths
    ]


def run_bench(case: BenchCase, verify: bool = False, emit_hash: bool = False) -> list[BenchRow]:
    """Time both algorithms on one case, one row per (algo, run).

    With verify set, every run's result is checked against the
    digit-wise reference; a mismatch raises VerificationFailure naming
    the offending seed and operand length.
    """
    a_text, b_text = gen_ordered_pair(case.digits, SplitMix64(case.seed))
    a = parse_magnitude(a_text)
    b = parse_magnitude(b_text)
    expected = None
    if verify:
        expected = subtract_digitwise(a_text, b_text)
    rows = []

    def check_and_hash(algo: str, run: int, result: DecimalMagnitude) -> str:
        if not (verify or emit_hash):
            return ""
        text = format_magnitude(result)
        if verify and text != expected:
            raise VerificationFailure(
                f"{algo} run {run} disagrees with the reference "
                f"(seed={case.seed}, digits={case.digits})"
            )
        return fnv1a64_hex(text) if emit_hash else ""

    for run in range(1, case.runs + 1):
        t0 = time.perf_counter()
        result = subtract_sequential(a, b)
        elapsed = time.perf_counter() - t0
        rows.append(
            BenchRow("sequential", case.digits, 1, run, elapsed, 0, check_and_hash("sequential", run, result))
        )
    for run in range(1, case.runs + 1):
        t0 = time.perf_counter()
        result, stats = subtract_parallel(a, b, case.workers)
        elapsed = time.perf_counter() - t0
        rows.append(
            BenchRow(
                "parallel", case.digits, case.workers, run, elapsed,
                stats.iterations, check_and_hash("parallel", run, result),
            )
        )
    return rows


def rows_to_csv(rows) -> str:
    """Render rows under the fixed header; seconds at nanosecond precision."""
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            f"{r.algo},{r.digits},{r.workers},{r.run},{r.seconds:.9f},{r.iterations},{r.result_hash}"
        )
    return "\n".join(lines) + "\n"
