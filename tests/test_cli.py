import dataclasses
import json
import os
import subprocess
import sys

import pytest

from gl3census import oracle
from gl3census import cli, verify
from gl3census.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_eval_values(capsys):
    code, out = run(capsys, "eval", "9", "3")
    assert code == 0 and out.strip() == "21730032"
    code, out = run(capsys, "eval", "6", "0")
    assert code == 0 and out.strip() == "0"
    code, out = run(capsys, "eval", "13", "0")
    assert code == 0 and out.strip() == "739964160"


def test_eval_reduces_x_and_formats(capsys):
    code, out = run(capsys, "eval", "9", "12", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 9, "x": 3, "count": 21730032}
    code, out = run(capsys, "eval", "5", "7", "--format", "csv")
    assert out.splitlines() == ["n,x,count", "5,2,300000"]


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["eval", "nine", "3"])
    assert err.value.code == 2
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_threads_below_one_exit_two(capsys, threads):
    for argv in (["oracle", "3"], ["table", "--section", "case-table"], ["verify"]):
        with pytest.raises(SystemExit) as err:
            main([*argv, "--threads", threads])
        assert err.value.code == 2
        assert "--threads: must be >= 1" in capsys.readouterr().err


def test_eval_rejects_nonpositive_modulus(capsys):
    # the modulus is checked before x is reduced by it, as in oracle
    for argv in (["eval", "0", "0"], ["eval", "0", "1"], ["oracle", "0"]):
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: cannot factor 0; need a positive integer\n"


def test_oracle_single_value(capsys):
    code, out = run(capsys, "oracle", "3", "--x", "0")
    assert code == 0 and out.strip() == "3312"
    code, out = run(capsys, "oracle", "7", "--x", "0", "--threads", "1")
    assert code == 0 and out.strip() == "4653936"


def test_oracle_full_table_csv(capsys):
    code, out = run(capsys, "oracle", "5", "--format", "csv", "--threads", "1")
    assert code == 0
    assert out.splitlines() == [
        "x,count",
        "0,288000",
        "1,300000",
        "2,300000",
        "3,300000",
        "4,300000",
    ]


def test_oracle_naive_engine(capsys):
    code, out = run(capsys, "oracle", "4", "--engine", "naive", "--format", "csv")
    assert code == 0
    assert out.splitlines()[1:] == ["0,0", "1,43008", "2,0", "3,43008"]


def test_oracle_classes_row(capsys):
    code, out = run(capsys, "oracle", "9", "--classes", "--x", "0", "--format", "csv", "--threads", "2")
    assert code == 0
    assert out.splitlines() == [
        "x,count,c11,c12,c13,c21,c22",
        "0,21730032,14486688,3779136,629856,2519424,314928",
    ]


def test_oracle_classes_refuses_the_naive_engine(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "class_census", lambda *args, **kw: pytest.fail("census started"))
    code = main(["oracle", "9", "--classes", "--engine", "naive"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: --classes runs the class census, not the naive engine\n"


def test_verify_help_shows_the_seed_default(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify", "--help"])
    assert err.value.code == 0
    assert f"(default: {verify.DEFAULT_SEED})" in capsys.readouterr().out
    assert cli._build_parser().parse_args(["verify"]).seed == verify.DEFAULT_SEED


def test_oracle_bound_exit_three(capsys):
    code = main(["oracle", "128"])
    err = capsys.readouterr().err
    assert code == 3
    assert "127" in err


@pytest.mark.parametrize("classes", [[], ["--classes"]])
def test_oracle_refuses_a_huge_prime_before_factorizing(monkeypatch, capsys, classes):
    # 2^61 - 1 is prime: trial division would run for minutes
    def fail(*args):
        pytest.fail("factorized before the bound check")

    for module in (cli, oracle):
        monkeypatch.setattr(module, "factorize", fail)
        monkeypatch.setattr(module, "is_prime", fail)
    code = main(["oracle", str(2**61 - 1), *classes])
    assert code == 3
    assert "n <= 127" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["class-table", "case-table"])
def test_table_check_refuses_a_huge_prime_before_factorizing(monkeypatch, capsys, section):
    def fail(*args):
        pytest.fail("factorized before the bound check")

    for module in (cli, oracle):
        monkeypatch.setattr(module, "factorize", fail)
        monkeypatch.setattr(module, "is_prime", fail)
    code = main(["table", "--section", section, "--p-list", str(2**61 - 1), "--check"])
    assert code == 3
    assert "n <= 127" in capsys.readouterr().err


def test_table_class_section_csv(capsys):
    code, out = run(capsys, "table", "--section", "4.2", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "n,perm0,c11,c12,c13,c21,c22",
        "3,3312,2208,576,96,384,48",
        "5,288000,225280,38400,5120,17920,1280",
        "7,4653936,3900960,508032,54432,181440,9072",
        "9,21730032,14486688,3779136,629856,2519424,314928",
        "11,192390000,173140000,14520000,1100000,3520000,110000",
        "13,739964160,677154816,49061376,3234816,10243584,269568",
    ]
    # the descriptive alias emits the same bytes
    code2, out2 = run(capsys, "table", "--section", "class-table", "--format", "csv")
    assert out2 == out


def test_table_single_row(capsys):
    code, out = run(capsys, "table", "--section", "4.2", "--p-list", "3", "--format", "csv")
    assert out.splitlines() == ["n,perm0,c11,c12,c13,c21,c22", "3,3312,2208,576,96,384,48"]


def test_table_case_section(capsys):
    code, out = run(capsys, "table", "--section", "4-cases", "--p-list", "5", "--format", "csv")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 7
    assert sum(int(r[-1]) for r in rows) == 288000


def test_table_case_with_oracle_check(capsys):
    code, out = run(capsys, "table", "--section", "case-table", "--p-list", "3",
                    "--check", "--format", "csv", "--threads", "1")
    assert code == 0
    assert all(line.endswith("True") for line in out.splitlines()[1:])


def _off_by_one_censuses(monkeypatch):
    """Make class_census and case_census each report one count too many."""
    real_class, real_case = oracle.class_census, oracle.case_census

    def class_census(p, k=1, **kwargs):
        census = real_class(p, k, **kwargs)
        first = (census.counts[0][0] + 1, *census.counts[0][1:])
        return dataclasses.replace(census, counts=(first, *census.counts[1:]))

    def case_census(p, **kwargs):
        census = real_case(p, **kwargs)
        first = dataclasses.replace(census.rows[0], count=census.rows[0].count + 1)
        return dataclasses.replace(census, rows=(first, *census.rows[1:]))

    monkeypatch.setattr(oracle, "class_census", class_census)
    monkeypatch.setattr(oracle, "case_census", case_census)


@pytest.mark.parametrize("section", ["class-table", "case-table"])
def test_table_check_disagreement_exits_one(monkeypatch, capsys, section):
    argv = ["table", "--section", section, "--p-list", "3", "--format", "csv", "--threads", "1"]
    code, good = run(capsys, *argv, "--check")
    assert code == 0
    _off_by_one_censuses(monkeypatch)
    code, bad = run(capsys, *argv, "--check")
    assert code == 1
    # stdout is the report, with only the disagreeing row's verdict changed
    assert bad.splitlines()[2:] == good.splitlines()[2:]
    assert bad.splitlines()[1] == good.splitlines()[1].replace("True", "False")
    # without --check nothing is compared
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("failure", [RuntimeError("a census failed its own check"), MemoryError()])
def test_failed_worker_exit_four(monkeypatch, capsys, failure):
    def census_tiered(*args, **kwargs):
        raise failure

    monkeypatch.setattr(oracle, "census_tiered", census_tiered)
    code = main(["oracle", "5"])
    captured = capsys.readouterr()
    assert code == 4
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


def test_identical_invocations_identical_bytes(capsys):
    _, first = run(capsys, "table", "--section", "4.2", "--format", "json")
    _, second = run(capsys, "table", "--section", "4.2", "--format", "json")
    assert first == second


def test_eval_agrees_with_oracle_spot_checks(capsys):
    for n in (4, 6, 9):
        for x in range(n):
            _, closed = run(capsys, "eval", str(n), str(x))
            _, counted = run(capsys, "oracle", str(n), "--x", str(x), "--threads", "1")
            assert closed == counted, (n, x)


def test_verify_negative_seed_exits_two(monkeypatch, capsys):
    monkeypatch.setattr(oracle, "census_tiered", lambda *args, **kw: pytest.fail("census started"))
    assert main(["verify", "--seed", "-1"]) == 2
    assert "seed must be >= 0" in capsys.readouterr().err


def test_verify_quick_cli(capsys):
    code, out = run(capsys, "verify", "--profile", "quick", "--format", "json", "--threads", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(rec["status"] == "pass" for rec in lines)
    assert len(lines) > 300


def test_memory_error_in_a_census_job_exits_four(monkeypatch, capsys):
    # the naive census runs its blocks on the calling thread, two threads
    # given or not
    calls = []

    def naive_block(*args):
        calls.append(args[0])
        raise MemoryError

    monkeypatch.setattr(oracle, "_naive_block", naive_block)
    assert main(["oracle", "6", "--engine", "naive", "--threads", "2"]) == 4
    assert calls == [6]
    assert capsys.readouterr().err == "error: out of memory\n"


def test_runtime_error_in_a_census_job_exits_four(monkeypatch, capsys):
    # an engine's self-check that fails inside a block, given two threads
    # (the naive census's blocks run inline): one stderr line and exit 4, not
    # a traceback
    calls = []

    def naive_block(*args):
        calls.append(args[0])
        raise RuntimeError("naive tally mod 6 covers too few prefixes")

    monkeypatch.setattr(oracle, "_naive_block", naive_block)
    code = main(["oracle", "6", "--engine", "naive", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == "" and calls == [6]
    assert captured.err == "error: naive tally mod 6 covers too few prefixes\n"


def test_runtime_error_in_a_verify_check_exits_four(monkeypatch, capsys):
    # a check that fails its own invariant is not a failed verify check (exit 1)
    def fine(ctx):
        return []

    def broken(ctx):
        raise RuntimeError("a shift batch must have one label")

    monkeypatch.setattr(verify, "_CHECKS", [("fine", fine), ("broken", broken)])
    code = main(["verify", "--threads", "2"])
    captured = capsys.readouterr()
    assert code == 4 and captured.out == ""
    assert captured.err == "error: a shift batch must have one label\n"


ALL_THREADS_ARGV = (["oracle", "5"], ["table", "--section", "4.2"], ["verify"])


@pytest.mark.parametrize("argv", ALL_THREADS_ARGV)
def test_default_threads_are_the_cpus_the_process_may_use(monkeypatch, argv):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._build_parser().parse_args(argv).threads == 1


@pytest.mark.parametrize("argv", ALL_THREADS_ARGV)
def test_default_threads_fall_back_to_cpu_count(monkeypatch, argv):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert cli._build_parser().parse_args(argv).threads == 64


def test_closed_stdout_exits_141_without_a_traceback():
    # a reader that stops after one line closes the pipe mid-output: exit
    # code 1 is kept for failed verification, so this exits 128 + SIGPIPE
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    p_list = ",".join(["3"] * 3000)
    argv = [sys.executable, "-m", "gl3census", "table", "--section", "case-table", "--p-list", p_list]
    with subprocess.Popen(
        argv, env={**os.environ, "PYTHONPATH": src}, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    ) as proc:
        proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read()
        assert proc.wait(timeout=120) == 141 and stderr == b""
