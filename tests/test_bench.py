import pytest

import bigsub.bench as bench
from bigsub import DecimalMagnitude, compare_magnitude, parse_magnitude
from bigsub.bench import (
    CSV_HEADER,
    BenchCase,
    build_cases,
    fnv1a64_hex,
    gen_operand,
    gen_ordered_pair,
    rows_to_csv,
    run_bench,
)
from bigsub.errors import VerificationFailure
from bigsub.rng import SplitMix64


def test_gen_operand_golden_values():
    assert gen_operand(18, SplitMix64(42)) == "218402585476856091"
    assert gen_operand(1, SplitMix64(42)) == "3"
    assert gen_operand(40, SplitMix64(7)) == "4463458255360400717039350569552028118971"


def test_gen_operand_contract():
    for digits in (1, 2, 17, 18, 19, 100):
        s = gen_operand(digits, SplitMix64(9))
        assert len(s) == digits
        assert s.isdigit()
        if digits > 1:
            assert s[0] != "0"
    assert gen_operand(5, SplitMix64(3)) == gen_operand(5, SplitMix64(3))
    with pytest.raises(ValueError):
        gen_operand(0, SplitMix64(3))


def test_gen_ordered_pair():
    for seed in range(20):
        rng = SplitMix64(seed)
        a, b = gen_ordered_pair(1 + seed * 7 % 50, rng)
        assert compare_magnitude(parse_magnitude(a), parse_magnitude(b)) >= 0
    again = gen_ordered_pair(30, SplitMix64(5))
    assert again == gen_ordered_pair(30, SplitMix64(5))


def test_fnv1a64_golden_values():
    assert fnv1a64_hex("") == "cbf29ce484222325"
    assert fnv1a64_hex("a") == "af63dc4c8601ec8c"
    assert fnv1a64_hex("0") == "af63ad4c86019caf"
    assert fnv1a64_hex("999999999999999999") == "21dfbbe641db8ba7"


def test_build_cases_deterministic_with_distinct_seeds():
    cases = build_cases([100, 200], runs=3, workers=2, seed=11)
    assert cases == build_cases([100, 200], runs=3, workers=2, seed=11)
    assert cases[0].seed != cases[1].seed
    assert [c.digits for c in cases] == [100, 200]


def test_case_validation():
    with pytest.raises(ValueError):
        BenchCase(0, 1, 1, 1)
    with pytest.raises(ValueError):
        BenchCase(5, 0, 1, 1)
    with pytest.raises(ValueError):
        BenchCase(5, 1, 0, 1)
    with pytest.raises(ValueError):
        BenchCase(5, 1, 1, 2**64)


def test_run_bench_rows():
    case = BenchCase(digits=500, runs=5, workers=3, seed=77)
    rows = run_bench(case, verify=True, emit_hash=True)
    assert len(rows) == 10
    seq = [r for r in rows if r.algo == "sequential"]
    par = [r for r in rows if r.algo == "parallel"]
    assert len(seq) == len(par) == 5
    assert [r.run for r in seq] == [1, 2, 3, 4, 5]
    assert all(r.workers == 1 and r.iterations == 0 for r in seq)
    assert all(r.workers == 3 and r.iterations >= 1 for r in par)
    assert all(r.seconds >= 0 for r in rows)
    hashes = {r.result_hash for r in rows}
    assert len(hashes) == 1 and len(hashes.pop()) == 16


def test_run_bench_without_hash_leaves_column_empty():
    rows = run_bench(BenchCase(40, 1, 2, 5))
    assert all(r.result_hash == "" for r in rows)
    assert all(r.digits == 40 for r in rows)


def test_run_bench_verify_catches_bad_results(monkeypatch):
    def broken(a, b, ops=None):
        return DecimalMagnitude((41,))

    monkeypatch.setattr(bench, "subtract_sequential", broken)
    with pytest.raises(VerificationFailure) as err:
        run_bench(BenchCase(20, 1, 1, 123), verify=True)
    assert "seed=123" in str(err.value)
    assert "digits=20" in str(err.value)


def test_csv_shape():
    rows = run_bench(BenchCase(100, 2, 2, 9), emit_hash=True)
    text = rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER == "algo,digits,workers,run,seconds,iterations,result_hash"
    assert len(lines) == 5
    assert text.endswith("\n")
    for line in lines[1:]:
        fields = line.split(",")
        assert len(fields) == 7
        int(fields[1]), int(fields[2]), int(fields[3]), int(fields[5])
        float(fields[4])
        assert "." in fields[4] and len(fields[4].split(".")[1]) == 9
