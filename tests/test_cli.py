import os
import threading

import pytest

from bigsub import IterationLimitExceeded, parse_magnitude
from bigsub.cli import main


def run(capsys, *argv):
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def test_sub_literal(capsys):
    code, out, _ = run(capsys, "sub", "--a", "1000000000000000000", "--b", "1")
    assert code == 0
    assert out == "999999999999999999\n"


def test_sub_parallel_same_answer(capsys):
    args = ["--a", "1" + "0" * 54, "--b", "1"]
    seq = run(capsys, "sub", *args)
    par = run(capsys, "sub", *args, "--parallel", "--workers", "3")
    assert seq[0] == par[0] == 0
    assert seq[1] == par[1] == "9" * 54 + "\n"


def test_sub_verify_passes(capsys):
    code, out, _ = run(capsys, "sub", "--a", "123456", "--b", "456", "--verify")
    assert code == 0
    assert out == "123000\n"


def _drops_last_digit(text):
    return parse_magnitude(text[:-1] or "0")


def _drops_first_digit(text):
    return parse_magnitude(text[1:] or "0")


@pytest.mark.parametrize(
    "faulty_parse, a, b",
    [
        (_drops_last_digit, "1000", "1"),
        # 19 - 20 is negative, so the reference raises: a failed
        # verification too, not a traceback
        (_drops_first_digit, "19", "20"),
    ],
    ids=["drops-last-digit", "reorders-the-operands"],
)
def test_sub_verify_catches_a_faulty_parser(faulty_parse, a, b, monkeypatch, capsys):
    # the reference reads the operand text, so it sees what the parser lost
    monkeypatch.setattr("bigsub.cli.parse_magnitude", faulty_parse)
    code, out, err = run(capsys, "sub", "--a", a, "--b", b, "--verify")
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


def test_sub_parallel_verify_catches_a_wrong_result(monkeypatch, capsys):
    monkeypatch.setattr("bigsub.cli.subtract_parallel", lambda a, b, workers: (parse_magnitude("1"), None))
    code, out, err = run(capsys, "sub", "--a", "1000", "--b", "1", "--parallel", "--verify")
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1 and "Traceback" not in err


def test_sub_file_operands(tmp_path, capsys):
    fa = tmp_path / "a.txt"
    fb = tmp_path / "b.txt"
    fb.write_text("1")
    # one trailing line end is allowed; text mode reads "\r\n" and "\r" as "\n"
    for content in (b"1000\n", b"1000\r\n", b"1000\r"):
        fa.write_bytes(content)
        code, out, _ = run(capsys, "sub", "--a", f"@{fa}", "--b", f"@{fb}")
        assert code == 0
        assert out == "999\n"


def test_sub_missing_file_is_input_error(tmp_path, capsys):
    code, _, err = run(capsys, "sub", "--a", f"@{tmp_path}/nope", "--b", "1")
    assert code == 1
    assert "error" in err


def test_sub_negative_exit_2(capsys):
    code, _, err = run(capsys, "sub", "--a", "3", "--b", "5")
    assert code == 2
    assert "negative" in err


def test_sub_bad_digit_exit_1(capsys):
    code, _, err = run(capsys, "sub", "--a", "12x", "--b", "5")
    assert code == 1
    assert "invalid digit" in err


def test_usage_error_exit_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sub", "--a", "5"])  # --b missing
    assert exc.value.code == 1
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["bench", "--runs", "0", "--digits", "100"],
        ["bench", "--workers", "0", "--digits", "100"],
        ["sub", "--a", "5", "--b", "3", "--parallel", "--workers", "0"],
        ["sub", "--a", "@{non_ascii}", "--b", "1"],
        ["sub", "--a", "@{late_non_ascii}", "--b", "1"],
        # only one trailing newline is stripped; the second is a digit
        ["sub", "--a", "@{two_newlines}", "--b", "1"],
        ["bench", "--digits", "100", "--csv", "{tmp}/no-such-dir/x.csv"],
        ["bench", "--digits", "100", "--csv", "{tmp}"],
        # numpy refuses this length before allocating; never test lengths
        # it would try to allocate
        ["bench", "--digits", "100000000000000000000000"],
        # opens, but every write fails
        pytest.param(
            ["bench", "--digits", "20", "--runs", "1", "--csv", "/dev/full"],
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=[
        "bench-runs-0", "bench-workers-0", "sub-parallel-workers-0", "sub-non-ascii-file",
        "sub-non-ascii-after-digits", "sub-two-trailing-newlines", "bench-csv-missing-dir",
        "bench-csv-is-a-directory", "bench-digits-too-long", "bench-csv-write-fails",
    ],
)
def test_bad_input_is_one_line_exit_1(argv, tmp_path, capsys):
    non_ascii = tmp_path / "bad.txt"
    non_ascii.write_bytes(b"\xff\xfe")
    late_non_ascii = tmp_path / "late.txt"
    late_non_ascii.write_bytes(b"12\xff3")
    two_newlines = tmp_path / "two.txt"
    two_newlines.write_bytes(b"1000\n\n")
    paths = {
        "non_ascii": non_ascii,
        "late_non_ascii": late_non_ascii,
        "two_newlines": two_newlines,
        "tmp": tmp_path,
    }
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 1
    assert err.count("error:") == 1
    assert "Traceback" not in err
    if "@{non_ascii}" in argv:
        assert "invalid digit" in err and "position" in err
    if "@{late_non_ascii}" in argv:
        assert "invalid digit" in err and "position 2" in err
    if "@{two_newlines}" in argv:
        assert "invalid digit" in err and "position 4" in err
    if "/dev/full" in argv:
        assert "/dev/full" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["sub", "--a", "1" + "0" * 36, "--b", "1", "--parallel", "--workers", "2"],
        ["bench", "--digits", "20", "--runs", "1"],
        ["selftest"],
    ],
    ids=["sub-parallel", "bench", "selftest"],
)
def test_a_thread_that_cannot_start_is_one_line_exit_1(argv, monkeypatch, capsys):
    # as Thread.start fails when no thread can be started; no chunk
    # thread starts at all
    real_start = threading.Thread.start

    def start(thread):
        if thread.name.startswith("limb-"):
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err.count("error:") == 1 and "can't start new thread" in err
    assert "Traceback" not in err


def test_an_internal_fault_keeps_its_traceback(monkeypatch):
    # a resolution pass that re-emits its frontier never settles: that is
    # corruption, not an input error, so main does not map it to a code
    monkeypatch.setattr("bigsub.parallel.resolve_frontier", lambda result, frontier: frontier)
    monkeypatch.setattr("bigsub.parallel.resolve_few", lambda limbs, frontier: frontier)
    with pytest.raises(IterationLimitExceeded):
        main(["sub", "--a", "1" + "0" * 36, "--b", "1", "--parallel"])


@pytest.mark.parametrize("seed", ["-1", str(1 << 64)])
def test_bench_seed_outside_64_bits_exit_1(seed, capsys):
    code, _, err = run(capsys, "bench", "--digits", "100", "--seed", seed)
    assert code == 1
    assert "seed must fit in 64 bits" in err


def test_bench_stdout_csv(capsys):
    code, out, err = run(
        capsys, "bench", "--digits", "200,300", "--runs", "2", "--seed", "5", "--workers", "2"
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "algo,digits,workers,run,seconds,iterations,result_hash"
    assert len(lines) == 1 + 2 * 2 * 2
    assert "speedup" in err


def test_bench_csv_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code, out, err = run(capsys, "bench", "--digits", "100", "--runs", "1", "--csv", str(path))
    assert code == 0
    assert out == ""
    assert "wrote 2 rows" in err
    assert path.read_text().startswith("algo,digits,")


def test_bench_deterministic_modulo_seconds(capsys):
    argv = ["bench", "--digits", "400", "--runs", "2", "--seed", "7", "--emit-hash"]
    _, first, _ = run(capsys, *argv)
    _, second, _ = run(capsys, *argv)

    def strip_seconds(text):
        rows = [line.split(",") for line in text.splitlines()]
        return [",".join(f[:4] + f[5:]) for f in rows]

    assert strip_seconds(first) == strip_seconds(second)


def test_bench_verify_failure_exit_3(monkeypatch, capsys):
    monkeypatch.setattr("bigsub.bench.subtract_sequential", lambda a, b: parse_magnitude("1"))
    code, out, err = run(capsys, "bench", "--digits", "20", "--runs", "1", "--verify")
    assert code == 3
    assert out == ""
    assert err.count("error:") == 1
    assert "seed=" in err and "digits=20" in err


def test_bench_bad_digits_exit_1(capsys):
    code, _, err = run(capsys, "bench", "--digits", "10,no")
    assert code == 1
    assert "--digits" in err


def test_selftest_exit_0(capsys):
    code, out, _ = run(capsys, "selftest")
    assert code == 0
    assert "selftest passed" in out


def test_selftest_prints_no_ok_for_a_failed_section(monkeypatch):
    import bigsub.selftest as selftest_mod
    from bigsub import IterationStats

    real_subtract_parallel = selftest_mod.subtract_parallel

    def one_pass_only(a, b, workers):
        result, stats = real_subtract_parallel(a, b, workers)
        return result, IterationStats(1, stats.limb_count, stats.workers)

    monkeypatch.setattr(selftest_mod, "subtract_parallel", one_pass_only)
    lines = []
    assert not selftest_mod.run_selftest(echo=lines.append)
    assert any(line.startswith("FAIL worst-case") for line in lines)
    assert not any(line.startswith("ok: worst-case ripple") for line in lines)
    assert lines[-1] == "selftest FAILED"


def test_selftest_fails_on_a_borrow_free_section_failure(monkeypatch):
    # a 2-limb ripple takes 2 passes, which the borrow-free section must
    # report, and the whole selftest then fails with it alone
    import bigsub.selftest as selftest_mod

    ripple = [("1" + "0" * 18, "1")]
    monkeypatch.setattr(selftest_mod, "borrow_free_pairs", lambda count, max_digits, seed: ripple)
    lines = []
    assert not selftest_mod.run_selftest(echo=lines.append)
    assert "FAIL borrow-free input took 2 passes" in lines
    assert not any(line.startswith("ok: borrow-free") for line in lines)
    assert any(line.startswith("ok: oracle equivalence") for line in lines)
    assert any(line.startswith("ok: worst-case ripple") for line in lines)
    assert lines[-1] == "selftest FAILED"


def test_selftest_failure_exit_3(monkeypatch, capsys):
    monkeypatch.setattr("bigsub.cli.run_selftest", lambda: False)
    code, _, _ = run(capsys, "selftest")
    assert code == 3


def test_selftest_oracle_catches_a_faulty_parser(monkeypatch):
    import bigsub.selftest as selftest_mod

    monkeypatch.setattr(selftest_mod, "parse_magnitude", _drops_last_digit)
    lines = []
    assert not selftest_mod.run_selftest(echo=lines.append)
    assert any(line.startswith("FAIL oracle equivalence") for line in lines)
    assert not any(line.startswith("ok: oracle equivalence") for line in lines)
