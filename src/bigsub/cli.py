"""Command-line interface: sub, bench, selftest.

Exit codes: 0 success, 1 input or usage errors (an output that cannot
be written and a MemoryError among them, such as subtract_parallel
raises for a worker thread that cannot start), 2 negative result, 3
verification failure (a --verify mismatch or a failed selftest).
Commands raise; main maps each failure to its code by its type alone.
"""

import argparse
import statistics
import sys
from contextlib import nullcontext, suppress

from .bench import (
    DEFAULT_DIGITS,
    DEFAULT_RUNS,
    DEFAULT_SEED,
    DEFAULT_WORKERS,
    build_cases,
    rows_to_csv,
    run_bench,
)
from .errors import EmptyInput, InvalidDigit, NegativeResult, VerificationFailure
from .magnitude import format_magnitude, parse_magnitude
from .oracle import subtract_digitwise
from .parallel import subtract_parallel
from .selftest import run_selftest
from .sequential import subtract_sequential

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_NEGATIVE = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on usage errors by default; 2 is reserved for
    # NegativeResult here, so remap usage problems to the input-error code.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


# argparse types; argparse names them in its "invalid <name> value" message.
def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def seed_u64(text: str) -> int:
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(f"seed must fit in 64 bits, got {value}")
    return value


def digit_lengths(text: str) -> list[int]:
    lengths = [positive_int(d) for d in text.split(",") if d]
    if not lengths:
        raise argparse.ArgumentTypeError("wants at least one operand length")
    return lengths


def _read_operand(text: str) -> str:
    if text.startswith("@"):
        # a non-ASCII byte becomes a lone surrogate, which parse_magnitude
        # reports as an invalid digit, as it would in a literal operand
        with open(text[1:], "r", encoding="ascii", errors="surrogateescape") as fh:
            text = fh.read()
        if text.endswith("\n"):
            text = text[:-1]
    return text


def _cmd_sub(args) -> int:
    a_text = _read_operand(args.a)
    a = parse_magnitude(a_text)
    b_text = _read_operand(args.b)
    b = parse_magnitude(b_text)
    if args.parallel:
        result, _ = subtract_parallel(a, b, args.workers)
    else:
        result = subtract_sequential(a, b)
    text = format_magnitude(result)
    if args.verify:
        # The reference reads the operand text itself, so a fault in the
        # codec shows too.  It raises NegativeResult only if the codec let
        # a < b through, and then no result is right.
        expected = None
        with suppress(NegativeResult):
            expected = subtract_digitwise(a_text, b_text)
        if text != expected:
            raise VerificationFailure("result failed verification against the reference")
    print(text)
    return EXIT_OK


def _bench_summary(rows) -> str:
    lines = []
    for digits in sorted({r.digits for r in rows}):
        seq = statistics.median(r.seconds for r in rows if r.digits == digits and r.algo == "sequential")
        par = statistics.median(r.seconds for r in rows if r.digits == digits and r.algo == "parallel")
        speedup = seq / par if par > 0 else float("inf")
        lines.append(
            f"{digits} digits: sequential median {seq:.6f}s, "
            f"parallel median {par:.6f}s, speedup {speedup:.2f}x"
        )
    return "\n".join(lines)


def _cmd_bench(args) -> int:
    cases = build_cases(args.digits, runs=args.runs, workers=args.workers, seed=args.seed)
    # Open the CSV file before timing anything, so a path that cannot be
    # opened fails at once rather than after the whole suite.
    out = open(args.csv, "w", encoding="ascii", newline="") if args.csv else nullcontext(sys.stdout)
    try:
        with out as fh:
            rows = []
            for case in cases:
                rows.extend(run_bench(case, verify=args.verify, emit_hash=args.emit_hash))
            fh.write(rows_to_csv(rows))
    except OSError as exc:
        # A buffered write fails when the file closes, with no filename.
        if exc.filename is None:
            exc.filename = args.csv
        raise
    if args.csv:
        print(f"wrote {len(rows)} rows to {args.csv}", file=sys.stderr)
    print(_bench_summary(rows), file=sys.stderr)
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    return EXIT_OK if run_selftest() else EXIT_VERIFY


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bigsub", description="Big-integer decimal subtraction over 18-digit limbs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sub = sub.add_parser("sub", help="subtract two operands (literal digits or @file)")
    p_sub.add_argument("--a", required=True, help="minuend: digit string or @path")
    p_sub.add_argument("--b", required=True, help="subtrahend: digit string or @path")
    p_sub.add_argument("--parallel", action="store_true", help="use the multi-worker algorithm")
    p_sub.add_argument("--workers", type=positive_int, default=DEFAULT_WORKERS, help="worker count for --parallel")
    p_sub.add_argument("--verify", action="store_true", help="check the result against the digit-wise reference")
    p_sub.set_defaults(func=_cmd_sub)

    p_bench = sub.add_parser("bench", help="run the timing suite and emit CSV")
    p_bench.add_argument("--digits", type=digit_lengths, default=list(DEFAULT_DIGITS),
                         help="comma-separated operand lengths")
    p_bench.add_argument("--runs", type=positive_int, default=DEFAULT_RUNS, help="runs per case and algorithm")
    p_bench.add_argument("--workers", type=positive_int, default=DEFAULT_WORKERS, help="parallel worker count")
    p_bench.add_argument("--seed", type=seed_u64, default=DEFAULT_SEED, help="master seed for operand generation")
    p_bench.add_argument("--csv", metavar="PATH", help="write CSV here instead of stdout")
    p_bench.add_argument("--verify", action="store_true", help="check every result against the reference")
    p_bench.add_argument("--emit-hash", action="store_true", help="fill the result_hash CSV column")
    p_bench.set_defaults(func=_cmd_bench)

    p_self = sub.add_parser("selftest", help="run the built-in sanity suite")
    p_self.set_defaults(func=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # The one place a command's failure becomes an exit code and one
    # `error:` line; any other exception is an internal fault and keeps
    # its traceback.
    try:
        return args.func(args)
    except NegativeResult:
        code, message = EXIT_NEGATIVE, "result would be negative"
    except VerificationFailure as exc:
        code, message = EXIT_VERIFY, str(exc)
    except (EmptyInput, InvalidDigit, OSError, MemoryError) as exc:
        code, message = EXIT_INPUT, str(exc)
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
