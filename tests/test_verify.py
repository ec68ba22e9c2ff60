import ast
import itertools
import json
import os
import subprocess
import sys
import tracemalloc
import zlib

import numpy as np
import pytest

import gl3census
from gl3census import closed_form, oracle, structure_maps, verify
from gl3census.modring import factorize
from gl3census.oracle import CountTable
from support import label_pivot, materialize, member_groups, shift_verify_members_by_scatter


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


def test_subperm_identity_draws_one_block_at_a_time(monkeypatch):
    # each block of _BLOCK samples is drawn in the kernel's type, so the check
    # never holds the whole (9, samples) int64 draw
    ctx = verify._Ctx(profile=verify.FULL, threads=1, seed=verify.DEFAULT_SEED)
    tracemalloc.start()
    try:
        results = verify._subperm_identity(ctx)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert [r.actual for r in results] == [0] * len(verify.FULL.identity_moduli)
    assert peak < 9 * verify.FULL.identity_samples * 8
    # negative control: a wrong P11 shows as mismatches at every modulus
    real = verify.perm_det_subperms

    def wrong_p11(e, n):
        perm, det, p11, *rest = real(e, n)
        return perm, det, p11 + 1, *rest

    monkeypatch.setattr(verify, "perm_det_subperms", wrong_p11)
    assert all(r.actual > 0 for r in verify._subperm_identity(ctx))


def test_shift_population_job_holds_one_block_at_a_time():
    # job 18 of (3, 2), 551,448 members, peaks highest of the scan's 42 jobs,
    # with 6 and 35 within 0.2 kB: each holds a full batch of left-over
    # prefixes, whose images move row 2 and so get minors of their own. Its
    # batches hold at most _BLOCK members: tracemalloc puts its peak at
    # 4.09 MB, with the job's per-prefix arrays.
    args, _ = oracle._range_jobs(9**6, 9**2, 3, 2)[18]
    tracemalloc.start()
    try:
        out = verify._shift_population_job(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.tolist() == [551_448, 0, 0, 0]
    assert peak < 9 * oracle._BLOCK * 8


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


@pytest.mark.parametrize("population", [False, True])
@pytest.mark.parametrize("threads", [0, -1])
def test_shift_round_trip_rejects_threads_below_one(monkeypatch, population, threads):
    monkeypatch.setattr(verify, "_sample_matrices", lambda *args: pytest.fail("sampler reached"))
    monkeypatch.setattr(oracle, "_sum_jobs", lambda *args: pytest.fail("jobs dispatched"))
    with pytest.raises(ValueError, match="threads must be >= 1"):
        verify.shift_round_trip(3, 1, population=population, threads=threads)


def test_unknown_profile_refused_naming_the_known_ones(monkeypatch):
    monkeypatch.setattr(oracle, "census_tiered", lambda *args, **kw: pytest.fail("census started"))
    with pytest.raises(ValueError, match="unknown profile 'bogus'; known profiles: quick, full"):
        verify.run_suite("bogus")


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
    batch = next(structure_maps.zero_perm_members(p, k))
    assert all(v.dtype == narrow for v in batch)
    members = materialize(batch)
    corrupted = members.copy()
    lab, _ = label_pivot(members, n, p)
    corrupted[lab[0], 0] = (corrupted[lab[0], 0] + 1) % n  # moves the permanent by a unit
    for batch, want in ((members, 0), (corrupted, 1)):
        results = [
            verify._shift_verify(batch.astype(t), n, p, shifts, oracle._inverse_table(n).astype(t))
            for t in (narrow, np.int64)
        ]
        assert results[0] == results[1] == {x: want for x in shifts}


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_shift_check_matches_the_scatter_reference(p, k):
    # the first four batches of members, the same with one pivot entry moved,
    # and the same with about 5% of the entries redrawn, which makes some
    # columns non-members
    n = p**k
    shifts = list(range(0, n, p))
    rng = np.random.default_rng([p, k])
    found = {"members": 0, "pivot moved": 0, "redrawn": 0}
    for batch in itertools.islice(structure_maps.zero_perm_members(p, k), 4):
        members = materialize(batch)
        moved = members.copy()
        lab, _ = label_pivot(members, n, p)
        moved[lab[0], 0] = (moved[lab[0], 0] + 1) % n
        redrawn = members.copy()
        hit = rng.random(redrawn.shape) < 0.05
        redrawn[hit] = rng.integers(0, n, size=int(hit.sum()))
        for name, batch in (("members", members), ("pivot moved", moved), ("redrawn", redrawn)):
            for t in (oracle._kernel_type(n), np.int64):
                e, inv = batch.astype(t), oracle._inverse_table(n).astype(t)
                want = shift_verify_members_by_scatter(e, n, p, shifts, inv)
                assert verify._shift_verify(e, n, p, shifts, inv) == want, (name, t)
            found[name] += sum(want.values())
    assert found["members"] == 0
    assert found["pivot moved"] > 0 and found["redrawn"] > 0


def grid_variants(batch, n, p):
    """The batch; one member's pivot entry moved; and prefix 0's rows 2 and 3 changed.

    A decided prefix's pivot is in row 1, a left-over one's in row 2, which
    is per prefix, so moving it moves every member over that prefix. Giving
    prefix 0 of a batch the rows 2 and 3 of a prefix of the other kind makes
    a batch of decided and left-over prefixes.
    """
    lab, _ = label_pivot(materialize(batch)[:, :1], n, p)
    moved = [v.copy() for v in batch]
    moved[lab[0]][0, 0] = (moved[lab[0]][0, 0] + 1) % n  # moves the permanent by a unit
    mixed = [v.copy() for v in batch]
    other = (1, 1, 0, n - 1, 1, 0) if lab[0] < 3 else (0, 1, 0, 0, 0, 1)  # left-over, decided
    for v, entry in zip(mixed[3:], other):
        v[0, 0] = entry
    return {"members": batch, "pivot moved": moved, "mixed": mixed}


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_grid_check_matches_the_scatter_reference(monkeypatch, p, k):
    # every batch of the middle job, plain, with one pivot entry moved and with
    # a prefix of the other kind mixed in, then the job under an inverse table
    # that is off by one, which only a shift by x != 0 reads. A plain batch
    # has one head label; a mixed one moves entries through masks
    n = p**k
    shifts = list(range(0, n, p))
    inv = oracle._inverse_table(n)
    jobs = oracle._range_jobs(n**6, n**2, p, k)
    (_, _, start, stop), _ = jobs[len(jobs) // 2]
    found = {"members": 0, "pivot moved": 0, "mixed": 0}
    heads = set()
    batches = list(structure_maps.zero_perm_members(p, k, range(start, stop)))
    for batch in batches:
        heads.add(min(int(label_pivot(materialize(batch)[:, :1], n, p)[0][0]), 3))
        for name, e in grid_variants(batch, n, p).items():
            want = shift_verify_members_by_scatter(materialize(e), n, p, shifts, inv)
            assert verify._shift_verify(e, n, p, shifts, inv) == want, name
            found[name] += sum(want.values())
    assert heads == {0, 1, 2, 3}  # decided batches of each head label, and left-over ones
    assert found["members"] == 0
    assert found["pivot moved"] > 0 and found["mixed"] > 0

    def off_by_one(n):
        inverse = [pow(v, -1, n) if v % p else 0 for v in range(n)]
        return ((np.array(inverse) + 1) % n).astype(oracle._kernel_type(n))

    # the job checks the batches above; the enumerator's own inverses stay right
    monkeypatch.setattr(structure_maps, "zero_perm_members", lambda *args: iter(batches))
    monkeypatch.setattr(oracle, "_inverse_table", off_by_one)
    bad = off_by_one(n)
    found = [shift_verify_members_by_scatter(materialize(e), n, p, shifts, bad) for e in batches]
    want = [sum(f[x] for f in found) for x in shifts]
    got = verify._shift_population_job((p, k, start, stop))
    assert got.tolist() == [sum(np.broadcast(*e).size for e in batches), *want]
    assert (sum(want) > 0) == (n > p)  # at k = 1 the only shift is x = 0


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_sampled_check_matches_the_scatter_reference(p, k):
    # shift_round_trip's own seeded sample holds every label, so its pivots
    # are in rows 1 and 2 and each moved entry goes through a mask; then the
    # same with one member's pivot entry moved
    n = p**k
    t = oracle._kernel_type(n)
    inv = oracle._inverse_table(n)
    shifts = list(range(0, n, p))
    checked, viols = verify.shift_round_trip(p, k, population=False)
    rng = np.random.default_rng([verify.DEFAULT_SEED, zlib.crc32(f"shift-{p}-{k}".encode())])
    e = verify._sample_matrices(rng, n, checked, n).astype(t)
    lab, _ = label_pivot(e, n, p)
    assert set(lab.tolist()) == {0, 1, 2, 3, 4}
    assert viols == shift_verify_members_by_scatter(e, n, p, shifts, inv) == {x: 0 for x in shifts}
    e[lab[0], 0] = (e[lab[0], 0] + 1) % n  # moves the permanent by a unit
    want = shift_verify_members_by_scatter(e, n, p, shifts, inv)
    assert verify._shift_verify(e, n, p, shifts, inv) == want == {x: 1 for x in shifts}


def test_decided_images_are_expanded_on_the_members_own_forms(monkeypatch):
    # a batch of one head label moves row 1 only, so its images' rows 2 and 3
    # are the member's arrays: forms runs once, on the batch's own rows 2 and
    # 3, and the members and both images are expanded on its result. A
    # left-over batch moves row 2, and each image gets forms of its own
    p, k, n = 3, 2, 9
    shifts = [0, 3, 6]
    inv = oracle._inverse_table(n)
    batches = {}
    for e in structure_maps.zero_perm_members(p, k, range(64_000, 68_000)):
        head = min(int(label_pivot(materialize(e)[:, :1], n, p)[0][0]), 3)
        batches.setdefault(head, e)
    formed, expanded = [], []
    real_forms, real_expand = verify.forms, verify.expand

    def spy_forms(r1, r2, n):
        formed.append((r1, r2, real_forms(r1, r2, n)))
        return formed[-1][2]

    def spy_expand(coeffs, row, n):
        expanded.append(coeffs)
        return real_expand(coeffs, row, n)

    def check(e):
        formed.clear()
        expanded.clear()
        assert verify._shift_verify(e, n, p, shifts, inv) == {x: 0 for x in shifts}

    monkeypatch.setattr(verify, "forms", spy_forms)
    monkeypatch.setattr(verify, "expand", spy_expand)
    for head in (0, 1, 2):
        e = batches[head]
        check(e)
        ((r2, r3, coeffs),) = formed
        assert all(a is b for a, b in zip([*r2, *r3], e[3:9]))
        assert len(expanded) == 3 and all(c is coeffs for c in expanded)
    e = batches[3]
    check(e)
    assert len(formed) == len(expanded) == 3
    assert all(c is f[2] for c, f in zip(expanded, formed))
    for r2, r3, _ in formed[1:]:
        assert all(a is b for a, b in zip(r3, e[6:9]))
        assert any(a is not b for a, b in zip(r2, e[3:6]))


def test_shift_population_on_three_jobs_does_not_depend_on_threads():
    # jobs 4..6 of (3, 2) hold decided and left-over prefixes, and every
    # (v, axis) group: v = 0, 1, 2 on axis y, and v = 2 on axis j
    jobs = oracle._range_jobs(9**6, 9**2, 3, 2)[4:7]
    groups = member_groups(3, 2, range(jobs[0][0][2], jobs[-1][0][3]))
    assert len(groups) == 4 and all(count > 0 for count in groups.values())
    results = [oracle._sum_jobs(verify._shift_population_job, jobs, t, None).tolist() for t in (1, 2, 3)]
    assert results[0][0] > 0 and results[0][1:] == [0, 0, 0]
    assert results[1] == results[0] and results[2] == results[0]


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1)])
def test_shift_population_does_not_depend_on_threads(p, k):
    results = [verify.shift_round_trip(p, k, threads=t) for t in (1, 2, 3)]
    assert results[0][0] == oracle.census_tiered(p**k)[0]
    assert results[0][1] == {x: 0 for x in range(0, p**k, p)}
    assert results[1] == results[0] and results[2] == results[0]


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
rows2, o = oracle._divisor_rows(9, True), oracle._row_orbits(9)
i, j = np.indices((len(rows2.sizes), len(o.sizes))).reshape(2, -1)
A, B, C, D, E, F = (v % 3 for v in forms([v[i] for v in rows2.reps], [v[j] for v in o.reps], 9))
left = (A == 0) & (B == 0) & (C == 0) & ((D != 0) | (E != 0) | (F != 0))
bad = dataclasses.replace(o, sizes=o.sizes + 1)
tally_check = raises(lambda: oracle._leftover_tally(rows2, bad, i[left], j[left], 3, 2))
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


def test_import_starts_no_process_machinery():
    # census jobs run on threads; importing the package loads no multiprocessing
    src = os.path.dirname(os.path.dirname(os.path.abspath(gl3census.__file__)))
    code = "import sys, gl3census; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False"]
