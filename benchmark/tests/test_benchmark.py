"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root:

    python3 -m pytest benchmark/tests -q
"""

import json
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
from replay import ReplayCounts, replay  # noqa: E402
from workloads import random_pairs, ripple_pairs, small_many_pairs  # noqa: E402

from bigsub.bench import gen_ordered_pair  # noqa: E402
from bigsub.magnitude import parse_magnitude  # noqa: E402
from bigsub.parallel import subtract_parallel  # noqa: E402
from bigsub.rng import SplitMix64  # noqa: E402

TINY = {
    "random-1m": partial(random_pairs, digits=300),
    "ripple": partial(ripple_pairs, zero_limbs=20),
    "small-many": partial(small_many_pairs, count=20, max_digits=60),
}

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(capsys, workload, trace):
    code = run.main(
        ["--workload", workload, "--seed", "7", "--seconds", "0.2", "--trace", str(trace)],
        workloads=TINY,
    )
    return code, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.fixture(autouse=True)
def _out_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace, section):
    code, result = _run(capsys, workload, trace)
    assert code == 0
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_workload_names_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.WORKLOADS)


def test_corrupted_expected_value_counts_as_an_error_and_fails(capsys, monkeypatch):
    real = run.subtract_digitwise
    monkeypatch.setattr(run, "subtract_digitwise", lambda a, b: real(a, b) + "0")
    code, result = _run(capsys, "small-many", 0)
    assert code != 0
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] > 0


@pytest.mark.parametrize("workers", [1, 2, 4, 8])
def test_replay_passes_equal_limb_count_on_a_ripple(workers):
    [(a_text, b_text)] = ripple_pairs(3, zero_limbs=30)
    a, b = parse_magnitude(a_text), parse_magnitude(b_text)
    counts = ReplayCounts()
    got, passes, _ = replay(a, b, workers, counts)
    want, stats = subtract_parallel(a, b, workers)
    assert passes == a.limb_count == 31 == stats.iterations
    assert got.limbs == want.limbs
    assert counts.flags_raised == 30
    assert counts.boundary_crossings == min(workers, a.limb_count) - 1


def test_random_pair_is_ordered_as_gen_ordered_pair():
    for seed in range(20):
        assert random_pairs(seed, digits=40) == [gen_ordered_pair(40, SplitMix64(seed))]


def test_small_many_pairs_are_ordered():
    for a, b in small_many_pairs(5, count=200, max_digits=30):
        assert int(a) >= int(b) and len(b) <= len(a)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmark/run.py", "--workload", "ripple", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
