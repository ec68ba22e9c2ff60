import ast
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import gl3census
from gl3census import closed_form, oracle, structure_maps, verify
from gl3census.modring import factorize
from gl3census.oracle import CountTable


def table(n, counts):
    return CountTable(factorize(n), tuple(counts))


def test_diff_tables_identical_all_pass():
    a = table(3, (3312, 3960, 3960))
    results = verify.diff_tables(a, table(3, (3312, 3960, 3960)))
    assert len(results) == 3
    assert all(r.passed for r in results)


def test_diff_tables_flags_single_difference():
    a = table(3, (3312, 3960, 3960))
    b = table(3, (3311, 3960, 3960))
    results = verify.diff_tables(a, b, check_id="unit-test")
    fails = [r for r in results if not r.passed]
    assert len(fails) == 1
    assert fails[0].check_id == "unit-test"
    assert dict(fails[0].params)["x"] == 0


def test_diff_tables_rejects_modulus_mismatch():
    with pytest.raises(verify.ModulusMismatch):
        verify.diff_tables(table(3, (0, 0, 0)), table(5, (0,) * 5))


def test_check_result_json_shape():
    r = verify.result("demo", 1, 2, p=3, label="C11")
    assert not r.passed and r.status == "fail"
    payload = json.loads(r.to_json())
    assert payload == {
        "check_id": "demo",
        "params": {"label": "C11", "p": 3},
        "expected": 1,
        "actual": 2,
        "status": "fail",
    }


def test_registry_covers_every_claim():
    # each claim must be reachable from the registered checks
    tags = [tag for tag, _ in verify._CHECKS]
    for claim, prefixes in verify.CLAIM_COVERAGE.items():
        hit = any(t.startswith(pref) or pref.startswith(t) for t in tags for pref in prefixes)
        assert hit, claim


def test_corrupted_formula_is_detected(monkeypatch):
    # negative control: a wrong closed form must surface as failures
    real = closed_form.count_prime_zero

    def broken(p):
        return real(p) + (1 if p == 3 else 0)

    monkeypatch.setattr(closed_form, "count_prime_zero", broken)
    ctx = verify._Ctx(profile=verify.QUICK, threads=1, seed=verify.DEFAULT_SEED)
    results = verify._zero_count_branches(ctx)
    assert any(not r.passed for r in results)


def test_shift_round_trip_rejects_p_two(monkeypatch):
    # G(2^k, 0) is empty (perm = det mod 2), so a sampler would draw forever
    monkeypatch.setattr(verify, "_sample_matrices", lambda *args: pytest.fail("sampler reached"))
    for population in (False, True):
        with pytest.raises(ValueError, match="odd prime"):
            verify.shift_round_trip(2, 1, population=population)


@pytest.mark.parametrize("sample", [0, -1])
def test_shift_round_trip_rejects_empty_sample(monkeypatch, sample):
    monkeypatch.setattr(verify, "_sample_matrices", lambda *args: pytest.fail("sampler reached"))
    with pytest.raises(ValueError, match="sample must be >= 1"):
        verify.shift_round_trip(3, 1, population=False, sample=sample)


def test_negative_seed_refused_before_any_census(monkeypatch):
    monkeypatch.setattr(oracle, "census_tiered", lambda *args, **kw: pytest.fail("census started"))
    monkeypatch.setattr(verify, "_sample_matrices", lambda *args: pytest.fail("sampler reached"))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        verify.run_suite("full", seed=-1)


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_shift_check_is_the_same_in_narrow_and_int64(p, k):
    n = p**k
    narrow = oracle._kernel_type(n)
    assert narrow is (np.int8 if n <= 7 else np.int16)
    shifts = list(range(0, n, p))
    members = next(structure_maps.zero_perm_members(p, k))
    assert members.dtype == narrow
    corrupted = members.copy()
    lab, _ = verify._label_pivot(members, n, p)
    corrupted[lab[0], 0] = (corrupted[lab[0], 0] + 1) % n  # moves the permanent by a unit
    for batch, want in ((members, 0), (corrupted, 1)):
        results = [
            verify._shift_verify_members(batch.astype(t), n, p, shifts, oracle._inverse_table(n, t))
            for t in (narrow, np.int64)
        ]
        assert results[0] == results[1] == {x: want for x in shifts}


def test_quick_suite_passes_and_is_thread_independent():
    one = verify.run_suite("quick", threads=1)
    assert all(r.passed for r in one), [r.to_json() for r in one if not r.passed]
    assert not verify.coverage_gaps(one)
    two = verify.run_suite("quick", threads=2)
    assert verify.to_json_lines(one) == verify.to_json_lines(two)


def test_render_table_summarizes():
    results = [verify.result("demo", 1, 1, p=3), verify.result("demo", 1, 2, p=5)]
    text = verify.render_table(results)
    assert "1/2 checks passed" in text
    assert "FAIL" in text and "PASS" in text


_FORCED_MISMATCHES = """
import dataclasses, sys
import numpy as np
from gl3census import closed_form, oracle, structure_maps, verify
from gl3census.matrices import ClassLabel, forms
from gl3census.modring import Residue


def raises(fn):
    try:
        fn()
    except RuntimeError:
        return True
    return False


real_zero, real_rows = closed_form.count_prime_zero, closed_form.case_rows
closed_form.count_prime_zero = lambda p: real_zero(p) + 1
sum_check = raises(lambda: closed_form.case_rows(5))
closed_form.count_prime_zero = real_zero

structure_maps.permanent3 = lambda m: Residue(0, m.modulus)
member = structure_maps.witness(ClassLabel.C11, 3, 2)
shift_check = raises(lambda: structure_maps.psi_shift(member, 3, 3))

closed_form.case_rows = lambda p: tuple(reversed(real_rows(p)))
ctx = verify._Ctx(dataclasses.replace(verify.QUICK, case_primes=(3,)), threads=1, seed=0)
key_check = raises(lambda: verify._case_table(ctx))

# first-row orbit sizes off by one make the left-over class tallies mod 9 inexact
o = oracle._row_orbits(9)
i, j = np.indices((len(o.sizes),) * 2).reshape(2, -1)
A, B, C, D, E, F = (v % 3 for v in forms([v[i] for v in o.reps], [v[j] for v in o.reps], 9))
left = (A == 0) & (B == 0) & (C == 0) & ((D != 0) | (E != 0) | (F != 0))
bad = dataclasses.replace(o, sizes=o.sizes + 1)
tally_check = raises(lambda: oracle._leftover_tally(bad, i[left], j[left], 3, 9))
print(sys.flags.optimize, sum_check, shift_check, key_check, tally_check)
"""


def test_invariants_raise_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gl3census.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_MISMATCHES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1", "True", "True", "True", "True"]


def test_src_has_no_assert_statements():
    # python -O strips assert statements, so every invariant in src must raise
    src = os.path.dirname(os.path.abspath(gl3census.__file__))
    names = sorted(name for name in os.listdir(src) if name.endswith(".py"))
    assert "oracle.py" in names
    found = []
    for name in names:
        with open(os.path.join(src, name)) as f:
            tree = ast.parse(f.read(), name)
        found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not found
