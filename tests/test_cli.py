import json

import pytest

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
    assert main(["eval", "0", "0"]) == 2


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


def test_oracle_bound_exit_three(capsys):
    code = main(["oracle", "17"])
    err = capsys.readouterr().err
    assert code == 3
    assert "16" in err


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


def test_verify_quick_cli(capsys):
    code, out = run(capsys, "verify", "--profile", "quick", "--format", "json", "--threads", "2")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert all(rec["status"] == "pass" for rec in lines)
    assert len(lines) > 300
