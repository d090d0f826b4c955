#!/usr/bin/env python3
"""The bigsub benchmark: end-to-end and per-layer timings on named workloads.

Run from the repository root, one workload per process (ru_maxrss only
ever rises within a process):

    python3 benchmark/run.py --workload random-1m --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
random-1m, ripple, small-many.

Each run is a closed loop: one caller waits for every result before it
sends the next operation.  A user operation is parse_magnitude on both
operands, the subtraction, then format_magnitude; sequential and
parallel (workers=2, the host's core count) operations alternate on the
same pair.  Run as a command, the process first pins itself to one CPU
(see pin_to_one_cpu).  Every result is compared, outside the timed
region, with the digit-wise oracle's answer computed once in set-up, so
correct sequential and parallel results also equal each other.

--trace 0 prints the end-to-end metrics: per algorithm, the p90 of all
operations (e2e and the subtraction call alone), set-up time (median of
several set-ups, spread over the run: each is followed by an equal
share of the timed loop) and peak RSS, and, printed but not in the JSON
result, the medians of the same timings.  --trace 1 is a separate run
that records spans around the benchmark's calls into each bigsub module,
replays the parallel call single-threaded to time and count its stages
(cross-checked against subtract_parallel for 1, 2, 4 and 8 workers),
times the CLI, writes the spans to .bench-out/trace-<workload>.json and
prints the per-layer metrics.

Human-readable lines (host facts, sample counts, result hash, error
rate) come first; the last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every operation succeeded and matched the oracle.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

try:
    import numpy as np

    from bigsub.bench import fnv1a64_hex, gen_operand
    from bigsub.magnitude import (
        LIMB_DIGITS,
        compare_magnitude,
        format_magnitude,
        pad_to_length,
        parse_magnitude,
    )
    from bigsub.oracle import subtract_digitwise
    from bigsub.parallel import subtract_parallel
    from bigsub.sequential import OpCount, subtract_sequential
except ImportError as exc:
    print(f"error: cannot import bigsub from {ROOT / 'src'}: {exc}", file=sys.stderr)
    raise SystemExit(2)

from replay import ReplayCounts, replay
from spans import Tracer
from workloads import WORKLOADS

WORKERS = 2
REPLAY_WORKERS = (1, 2, 4, 8)
# The host's speed drifts over tens of seconds, so set-ups are spread
# over the whole run, and their median does not hang on one moment.
SETUP_REPEATS = 7
CLI_REPEATS = 5
OUT_DIR = ROOT / ".bench-out"

# The end-to-end metrics BENCHMARK.json gates.  On a host shared with
# other tenants (here a 2-vCPU Xeon VM) operations fall into a fast and a
# slow mode, 1.3-1.7x apart, as the load on the shared core comes and
# goes over seconds to minutes.  The share of fast time changes from run
# to run, and the median and the fastest operation move with it; the p90
# sits in the slow mode and holds.  Over sets of 10 runs of 30 s, the
# spread (quartile distance over median) reached 0.29 for the medians
# and for ripple's fastest parallel call, and at most 0.15 for the p90s.
# So the p90s are gated and the medians are printed as well.
END_TO_END = [
    ("seq_e2e_p90_s", "s"),
    ("par_e2e_p90_s", "s"),
    ("seq_call_p90_s", "s"),
    ("par_call_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]
PRINTED = [
    ("seq_e2e_s", "s"),
    ("par_e2e_s", "s"),
    ("seq_call_s", "s"),
    ("par_call_s", "s"),
]

PER_LAYER = [
    ("rng.gen_s", "s"),
    ("oracle.expected_s", "s"),
    ("bench.fnv_s", "s"),
    ("magnitude.parse_s", "s"),
    ("magnitude.format_s", "s"),
    ("magnitude.compare_s", "s"),
    ("magnitude.pad_s", "s"),
    ("magnitude.canonical_s", "s"),
    ("sequential.limb_subtractions", "count"),
    ("sequential.borrows", "count"),
    ("sequential.ns_per_limb", "ns"),
    ("parallel.passes", "count"),
    ("parallel.to_array_s", "s"),
    ("parallel.initial_pass_s", "s"),
    ("parallel.borrow_pass_s", "s"),
    ("parallel.to_result_s", "s"),
    ("parallel.kernel_s", "s"),
    ("parallel.kernel_share", "ratio"),
    ("parallel.sync_s", "s"),
    ("parallel.sync_per_pass_us", "us"),
    ("parallel.flags_raised", "count"),
    ("parallel.useful_chunk_pass_ratio", "ratio"),
    ("parallel.boundary_crossings_w1", "count"),
    ("parallel.boundary_crossings_w2", "count"),
    ("parallel.boundary_crossings_w4", "count"),
    ("parallel.boundary_crossings_w8", "count"),
    ("parallel.kernel_bytes_computed", "bytes"),
    ("cli.sub_s", "s"),
    ("trace.overhead_share", "ratio"),
]

ALGOS = ("seq", "par")


def run_op(algo: str, a_text: str, b_text: str):
    """One user operation.  Returns (result text, stamps), the stamps
    being perf_counter readings at start, a parsed, b parsed,
    subtracted and formatted."""
    t0 = time.perf_counter()
    a = parse_magnitude(a_text)
    t1 = time.perf_counter()
    b = parse_magnitude(b_text)
    t2 = time.perf_counter()
    if algo == "seq":
        result = subtract_sequential(a, b)
    else:
        result, _ = subtract_parallel(a, b, WORKERS)
    t3 = time.perf_counter()
    text = format_magnitude(result)
    t4 = time.perf_counter()
    return text, (t0, t1, t2, t3, t4)


def _stamped(fn, log):
    """fn, appending (start, end) perf_counter stamps of each call to log."""

    def call(*args):
        t0 = time.perf_counter()
        out = fn(*args)
        log.append((t0, time.perf_counter()))
        return out

    return call


def set_up(make_pairs, seed: int):
    """Generate the operands, compute the oracle's answers and their
    hashes, and run one untimed warm-up operation per algorithm.
    Returns (pairs, expected, hashes, stamps): stamps maps "setup" and
    each set-up layer to the (start, end) stamps of its calls."""
    stamps = {"rng.gen": [], "oracle.expected": [], "bench.fnv": []}
    oracle = _stamped(subtract_digitwise, stamps["oracle.expected"])
    fnv = _stamped(fnv1a64_hex, stamps["bench.fnv"])
    t0 = time.perf_counter()
    pairs = make_pairs(seed, _stamped(gen_operand, stamps["rng.gen"]))
    expected = [oracle(a, b) for a, b in pairs]
    hashes = [fnv(e) for e in expected]
    for algo in ALGOS:
        run_op(algo, *pairs[0])
    stamps["setup"] = [(t0, time.perf_counter())]
    return pairs, expected, hashes, stamps


def _record_setup(tracer, stamps):
    [(t0, t1)] = stamps["setup"]
    root = tracer.add("setup", t0, t1)
    for name in ("rng.gen", "oracle.expected", "bench.fnv"):
        for start, end in stamps[name]:
            tracer.add(name, start, end, root)


class Tally:
    """Operations attempted and failed.  A result counts as correct only
    when it equals the oracle's, so correct seq and par results are also
    equal to each other."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0

    def op(self, algo, pair, expected):
        """Run and check one operation; returns (text, stamps) or None."""
        self.attempted += 1
        try:
            text, stamps = run_op(algo, *pair)
        except Exception as exc:  # counted, and the loop goes on
            self._fail(f"{algo} raised {type(exc).__name__}: {exc}")
            return None
        if text != expected:
            self._fail(f"{algo} result differs from the oracle")
            return None
        return text, stamps

    def _fail(self, message):
        self.failed += 1
        if self.failed == 1:
            print(f"error: {message} (only the first failure is printed)", file=sys.stderr)


def _closed_loop(seconds: float, pairs, body, start: int = 0):
    """Call body(k) on pair index k = start, start + 1, ... (cycling)
    until `seconds` have passed, at least once, and return the next
    index.  Garbage collection runs only between
    iterations, outside every timed region.  Each parallel call leaves a
    reference cycle (its barrier's action is a bound method of the run
    state that owns the barrier) holding its arrays, so the young
    generation is collected after every iteration to keep memory flat."""
    gc.collect()
    gc.disable()
    try:
        deadline = time.perf_counter() + seconds
        i = start
        while True:
            body(i % len(pairs))
            i += 1
            gc.collect(0)
            if time.perf_counter() >= deadline:
                return i
    finally:
        gc.enable()


def _median(xs):
    return statistics.median(xs) if xs else float("nan")


def _p90(xs):
    if len(xs) < 2:
        return _median(xs)
    return statistics.quantiles(xs, n=10)[-1]


def measure_end_to_end(pairs, expected, seconds, tally, samples, start):
    """Alternate sequential and parallel operations for `seconds`, from
    pair index `start` on, appending (e2e seconds, call seconds) to
    samples[algo].  Returns the next pair index."""

    def body(k):
        for algo in ALGOS:
            got = tally.op(algo, pairs[k], expected[k])
            if got is not None:
                st = got[1]
                samples[algo].append((st[4] - st[0], st[3] - st[2]))

    return _closed_loop(seconds, pairs, body, start)


def end_to_end_metrics(samples, setup_times):
    m = {}
    for algo in ALGOS:
        for field, kind in enumerate(("e2e", "call")):
            times = [s[field] for s in samples[algo]]
            m[f"{algo}_{kind}_s"] = _median(times)
            m[f"{algo}_{kind}_p90_s"] = _p90(times)
    m["setup_s"] = _median(setup_times)
    m["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m


def _record_op(tracer, algo, stamps):
    t0, t1, t2, t3, t4 = stamps
    root = tracer.add(f"op.{algo}", t0, t4)
    tracer.add("magnitude.parse", t0, t1, root)
    tracer.add("magnitude.parse", t1, t2, root)
    tracer.add("sequential.subtract" if algo == "seq" else "parallel.subtract", t2, t3, root)
    tracer.add("magnitude.format", t3, t4, root)


def _record_replay(tracer, stamps):
    t0, t1, t2, t3, t4, t5, t6 = stamps
    root = tracer.add("parallel.replay", t0, t6)
    tracer.add("parallel.to_array", t0, t1, root)
    tracer.add("parallel.initial_pass", t1, t2, root)
    tracer.add("parallel.borrow_pass", t2, t3, root)
    to_result = tracer.add("parallel.to_result", t3, t6, root)
    tracer.add("parallel.tolist", t3, t4, to_result)
    tracer.add("magnitude.canonical", t4, t5, to_result)
    tracer.add("magnitude.validate", t5, t6, to_result)


def measure_layers(pairs, expected, seconds, tally, tracer):
    """The traced loop.  Per pair: an untraced parallel operation (the
    base of the tracing overhead), traced sequential and parallel
    operations, the benchmark's own compare and pad calls, and a timed
    single-threaded replay of the parallel call.  Returns the per-layer
    numbers that need per-iteration pairing.

    sync is the parallel call minus the replay of the same pair: thread
    spawn and join, barrier trips, the coordinator and the
    compare_magnitude precondition check."""
    mags = [(parse_magnitude(a), parse_magnitude(b)) for a, b in pairs]
    untraced, traced, sync, sync_per_pass, kernel = [], [], [], [], []
    seq_time = [0.0]
    seq_limbs = [0]

    def body(k):
        got = tally.op("par", pairs[k], expected[k])
        if got is not None:
            untraced.append(got[1][4] - got[1][0])
        got = {}
        for algo in ALGOS:
            got[algo] = tally.op(algo, pairs[k], expected[k])
            if got[algo] is not None:
                _record_op(tracer, algo, got[algo][1])
        a, b = mags[k]
        n = a.limb_count
        t0 = time.perf_counter()
        compare_magnitude(a, b)
        t1 = time.perf_counter()
        pad_to_length(b, n)
        t2 = time.perf_counter()
        tracer.add("magnitude.compare", t0, t1)
        tracer.add("magnitude.pad", t1, t2)
        _, passes, st = replay(a, b, WORKERS)
        _record_replay(tracer, st)
        if got["seq"] is not None:
            st_seq = got["seq"][1]
            seq_time[0] += st_seq[3] - st_seq[2]
            seq_limbs[0] += n
        if got["par"] is not None:
            st_par = got["par"][1]
            traced.append(st_par[4] - st_par[0])
            replayed = st[6] - st[0]
            k_s = st[3] - st[1]
            s = (st_par[3] - st_par[2]) - replayed
            sync.append(s)
            sync_per_pass.append(s / passes)
            kernel.append(k_s)

    _closed_loop(seconds, pairs, body)
    par_call = _median(tracer.durations("parallel.subtract"))
    kernel_s = _median(kernel)
    untraced_e2e = _median(untraced)
    return {
        "sequential.ns_per_limb": seq_time[0] / seq_limbs[0] * 1e9,
        "parallel.kernel_s": kernel_s,
        "parallel.kernel_share": kernel_s / par_call,
        "parallel.sync_s": _median(sync),
        "parallel.sync_per_pass_us": _median(sync_per_pass) * 1e6,
        "trace.overhead_share": (_median(traced) - untraced_e2e) / untraced_e2e,
    }


def cross_check(pairs):
    """Exact counts over every pair, and the replay cross-check: for each
    worker count, the replay's limbs and pass count must equal
    subtract_parallel's.  Returns (metrics, mismatches)."""
    ops = OpCount()
    counts = {w: ReplayCounts() for w in REPLAY_WORKERS}
    mismatches = 0
    for a_text, b_text in pairs:
        a, b = parse_magnitude(a_text), parse_magnitude(b_text)
        subtract_sequential(a, b, ops)
        for w in REPLAY_WORKERS:
            got, stats = subtract_parallel(a, b, w)
            mine, passes, _ = replay(a, b, w, counts[w])
            if mine.limbs != got.limbs or passes != stats.iterations:
                mismatches += 1
                print(
                    f"error: replay at w={w} gave {passes} passes, "
                    f"subtract_parallel {stats.iterations}; limbs equal: {mine.limbs == got.limbs}",
                    file=sys.stderr,
                )
    c2 = counts[WORKERS]
    m = {
        "sequential.limb_subtractions": ops.limb_subtractions,
        "sequential.borrows": ops.borrows,
        "parallel.passes": c2.passes,
        "parallel.flags_raised": c2.flags_raised,
        "parallel.useful_chunk_pass_ratio": (
            c2.useful_chunk_passes / c2.chunk_passes if c2.chunk_passes else 1.0
        ),
        "parallel.kernel_bytes_computed": c2.kernel_bytes,
    }
    for w in REPLAY_WORKERS:
        m[f"parallel.boundary_crossings_w{w}"] = counts[w].boundary_crossings
    return m, mismatches


def time_cli(pair, expected, tally):
    """Median wall time of `python -m bigsub sub --a @file --b @file
    --parallel --workers 2` on one pair (the current workload's first
    pair), output checked."""
    OUT_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        paths = []
        for name, text in zip("ab", pair):
            path = Path(tmp) / f"{name}.txt"
            path.write_text(text + "\n", encoding="ascii")
            paths.append(path)
        cmd = [
            sys.executable, "-m", "bigsub", "sub",
            "--a", f"@{paths[0]}", "--b", f"@{paths[1]}",
            "--parallel", "--workers", str(WORKERS),
        ]
        for _ in range(CLI_REPEATS):
            tally.attempted += 1
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
            times.append(time.perf_counter() - t0)
            if proc.returncode != 0 or proc.stdout != expected + "\n":
                tally.failed += 1
                print(f"error: CLI exited {proc.returncode}: {proc.stderr.strip()[:200]}", file=sys.stderr)
    return _median(times)


def pin_to_one_cpu() -> None:
    """Restrict this process, and the threads and processes it starts,
    to one CPU.

    On a 2-vCPU virtual machine a barrier trip that wakes a thread on
    the other vCPU costs whatever it takes the hypervisor to wake that
    vCPU from idle, and that changes with the host's load.  Over minutes,
    ripple's 4,001-trip parallel call moved between about 0.14 s and
    0.28 s unpinned, and between about 0.12 s and 0.19 s pinned; the
    small-many parallel call moved between 0.30 ms and 0.51 ms unpinned
    and between 0.24 ms and 0.31 ms pinned.  Pinned, a trip is a context
    switch on one CPU, so the figures follow the code more than the
    host.  The cost is that the two workers share one core.
    """
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def host_facts(seed: int, pairs) -> dict:
    """Read-only host facts (lscpu, interpreter, numpy), the run
    settings, and the working set computed from array sizes."""
    facts = {"nproc": os.cpu_count(), "cpu_model": "unknown", "l2_cache": "unknown", "l3_cache": "unknown"}
    try:
        out = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, env=dict(os.environ, LC_ALL="C")
        ).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    for line in out.splitlines():
        key, _, value = line.partition(":")
        field = {"Model name": "cpu_model", "L2 cache": "l2_cache", "L3 cache": "l3_cache"}.get(key.strip())
        if field:
            facts[field] = value.strip()
    limbs = max(-(-len(a) // LIMB_DIGITS) for a, _ in pairs)
    facts.update(
        python=platform.python_version(),
        numpy=np.__version__,
        seed=seed,
        workers=WORKERS,
        cpus_used=sorted(os.sched_getaffinity(0)),
        # a, b and result as int64 plus the two uint8 boards; compare it
        # with l3_cache: no run here comes near 4x the last-level cache,
        # so kernel bytes are reported as computed, with no bandwidth ratio
        working_set_bytes_computed=3 * 8 * limbs + 2 * limbs,
    )
    return facts


def main(argv=None, workloads=WORKLOADS) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    make_pairs = workloads[args.workload]
    tracer = Tracer() if args.trace else None
    tally = Tally()

    setup_times = []
    samples = {algo: [] for algo in ALGOS}
    next_pair = 0
    for _ in range(SETUP_REPEATS):
        pairs, expected, hashes, stamps = set_up(make_pairs, args.seed)
        [(t0, t1)] = stamps["setup"]
        setup_times.append(t1 - t0)
        if tracer is None:
            next_pair = measure_end_to_end(
                pairs, expected, args.seconds / SETUP_REPEATS, tally, samples, next_pair
            )
        else:
            _record_setup(tracer, stamps)

    if tracer is None:
        metrics = end_to_end_metrics(samples, setup_times)
        units = END_TO_END
        sample_line = f"samples: seq={len(samples['seq'])} par={len(samples['par'])}"
    else:
        metrics = measure_layers(pairs, expected, args.seconds, tally, tracer)
        counted, mismatches = cross_check(pairs)
        metrics.update(counted)
        tally.failed += mismatches
        metrics["cli.sub_s"] = time_cli(pairs[0], expected[0], tally)
        for name in ("rng.gen", "oracle.expected", "bench.fnv", "magnitude.parse", "magnitude.format",
                     "magnitude.compare", "magnitude.pad", "magnitude.canonical", "parallel.to_array",
                     "parallel.initial_pass", "parallel.borrow_pass", "parallel.to_result"):
            metrics[f"{name}_s"] = _median(tracer.durations(name))
        units = PER_LAYER
        sample_line = f"samples: traced par={len(tracer.durations('op.par'))} replays={len(tracer.durations('parallel.replay'))}"
        sample_line += f"; replay cross-check mismatches at w={REPLAY_WORKERS}: {mismatches}"

    facts = host_facts(args.seed, pairs)
    digest = hashes[0] if len(hashes) == 1 else fnv1a64_hex("".join(hashes))
    if tracer is not None:
        OUT_DIR.mkdir(exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}.json"
        tracer.write(trace_path, {"workload": args.workload, "host": facts, "metrics": metrics})
        print(f"trace: {len(tracer.spans)} spans written to {os.path.relpath(trace_path)}")

    correct = tally.failed == 0
    print(f"workload: {args.workload}  host: {json.dumps(facts)}")
    print(sample_line)
    print(f"result_fnv1a64: {digest}")
    print(f"error_rate: {tally.failed / tally.attempted} ({tally.failed}/{tally.attempted})")
    for name, unit in units + ([] if tracer else PRINTED):
        print(f"{name}: {metrics[name]} {unit}")
    result = {
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    pin_to_one_cpu()
    raise SystemExit(main())
