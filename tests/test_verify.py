import ast
import json
import os
import subprocess
import sys
import threading
import tracemalloc
import zlib

import numpy as np
import pytest

import gl3census
from gl3census import closed_form, oracle, structure_maps, verify
from gl3census.modring import factorize
from gl3census.oracle import CountTable
from support import (
    by_label,
    grid,
    label_pivot,
    materialize,
    shift_verify_members_by_scatter,
)


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
    ctx = verify._Ctx(profile=verify.QUICK, seed=verify.DEFAULT_SEED)
    results = verify._zero_count_branches(ctx)
    assert any(not r.passed for r in results)


def test_full_suite_builds_each_prime_power_once():
    # the tables and bucket rows are cached per prime power, so the moduli
    # the suite revisits read them again and none is built twice
    for cache in (oracle._prime_power_table, oracle._bucket_rows):
        cache.cache_clear()
    assert all(r.passed for r in verify.run_suite("full"))
    for cache in (oracle._prime_power_table, oracle._bucket_rows):
        info = cache.cache_info()
        assert info.misses == info.currsize and info.hits > 0, (cache, info)


def test_subperm_identity_draws_one_block_at_a_time(monkeypatch):
    # each block of _BLOCK samples is drawn in the kernel's type, so the check
    # never holds the whole (9, samples) int64 draw
    ctx = verify._Ctx(profile=verify.FULL, seed=verify.DEFAULT_SEED)
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


def test_shift_population_job_holds_one_block_at_a_time(monkeypatch):
    # blocks 9 and 10 of (3, 2), 2,359,692 members, of the scan's 21: each
    # holds a full head batch of 4 _BLOCK one-byte members, and its
    # left-over batches hold at most 2 _BLOCK. The arrays held from batch to
    # batch, about 2.9 MB, are live while block 10 builds its per-prefix
    # tables, so tracemalloc puts the peak at 4.38 MB, within 0.06 MB of the
    # whole scan's; block 9 alone peaks at 3.71 MB (3.02 MB when each batch
    # allocated its own arrays)
    step, real = structure_maps._block_prefixes(9), structure_maps.zero_perm_members
    monkeypatch.setattr(
        structure_maps, "zero_perm_members", lambda p, k, _, held: real(p, k, range(9 * step, 11 * step), held)
    )
    tracemalloc.start()
    try:
        out = verify.shift_round_trip(3, 2)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out == (2_359_692, {0: 0, 3: 0, 6: 0})
    assert peak < 9 * oracle._BLOCK * 8


@pytest.mark.parametrize("block", [oracle._BLOCK, oracle._BLOCK // 2])
def test_shift_round_trip_allocates_no_array_per_batch_member(monkeypatch, block):
    # block 9 of (3, 2), in batches of 4 and 2 _BLOCK members and in twice
    # as many of half the size. Each batch's step, the grid listing it and
    # the verifier checking it, is traced from the end of the step before:
    # past the first head and the first left-over batch, which allocate the
    # held arrays and build the block's per-prefix tables, no step's traced
    # peak passes one byte a member, 64 bytes a prefix and 32 kB. With the
    # per-member arrays allocated per batch every step passes it (200-330
    # bytes a prefix)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    step, real = structure_maps._block_prefixes(9), structure_maps.zero_perm_members
    monkeypatch.setattr(
        structure_maps, "zero_perm_members", lambda p, k, _, held: real(p, k, range(9 * step, 10 * step), held)
    )
    real_verify, steps, start = verify._shift_verify, [], 0  # traced bytes at the end of the step before

    def traced(e, *args):
        nonlocal start
        out = real_verify(e, *args)
        current, peak = tracemalloc.get_traced_memory()
        members, (_, prefixes) = np.broadcast(*e).size, np.broadcast(*e).shape
        head = np.shape(e[0])[0] > 1  # row 1 per member
        steps.append((head, peak - start - (members + 64 * prefixes + (1 << 15))))
        tracemalloc.reset_peak()
        start = current
        return out

    monkeypatch.setattr(verify, "_shift_verify", traced)
    tracemalloc.start()
    try:
        assert verify.shift_round_trip(3, 2) == (1_153_872, {0: 0, 3: 0, 6: 0})
    finally:
        tracemalloc.stop()
    first_leftover = next(i for i, (head, _) in enumerate(steps) if not head)
    over = {i for i, (_, excess) in enumerate(steps) if excess > 0}
    assert len(steps) >= 9 * oracle._BLOCK // block
    assert 0 in over and over <= {0, first_leftover}, steps


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
    # the unsigned member type of the population and the sample, the signed
    # kernel type and int64 give the same counts, on members and with one
    # pivot moved
    n = p**k
    member, kernel = structure_maps._member_type(n), oracle._kernel_type(n)
    assert member is np.uint8 and kernel is (np.int8 if n <= 7 else np.int16)
    shifts = list(range(0, n, p))
    batch = next(structure_maps.zero_perm_members(p, k))
    assert all(v.dtype == member for v in batch)
    members = materialize(batch)
    corrupted = members.copy()
    lab, _ = label_pivot(members, n, p)
    corrupted[lab[0], 0] = (corrupted[lab[0], 0] + 1) % n  # moves the permanent by a unit
    for batch, want in ((members, 0), (corrupted, 1)):
        results = [
            verify._shift_verify(batch.astype(t), n, p, shifts, oracle._inverse_table(n))
            for t in (member, kernel, np.int64)
        ]
        assert results[0] == results[1] == results[2] == {x: want for x in shifts}


@pytest.mark.parametrize("p", [5, 2])
def test_member_path_values_fit_the_member_type_at_ten(monkeypatch, p):
    # n = 10, the population scan's largest n, at its worst case: every entry
    # and every coefficient of the forms n - 1. Each value the verifier forms
    # passes through mod, and in the one-byte batch each equals its int64
    # value. p = 5 puts the pivots in row 1 and p = 2 in row 2; both reach
    # the bound 3 (n - 1)^2 = 243
    n = 10
    assert structure_maps._member_type(n) is np.uint8
    monkeypatch.setattr(verify, "forms", lambda r1, r2, n: [np.full(np.shape(r1[0]), n - 1)] * 6)
    real_mod = verify.mod
    seen = {}

    def spy_mod(a, m, **out):
        seen[t].append(np.array(a, dtype=np.int64))
        return real_mod(a, m, **out)

    monkeypatch.setattr(verify, "mod", spy_mod)
    shifts = list(range(0, n, p))
    counts = {}
    for t in (np.uint8, np.int64):
        seen[t] = []
        e = [np.full((1, 4), n - 1, dtype=t) for _ in range(9)]
        counts[t] = verify._shift_verify(e, n, p, shifts, oracle._inverse_table(n))
    assert counts[np.uint8] == counts[np.int64] == {x: 4 for x in shifts}  # perm 243 is not 0 mod 10
    assert len(seen[np.uint8]) == len(seen[np.int64])
    assert all(np.array_equal(a, b) for a, b in zip(seen[np.uint8], seen[np.int64]))
    assert max(int(a.max()) for a in seen[np.int64]) == 3 * (n - 1) ** 2


def middle_block_batches(p, k):
    """The zero_perm_members batches of the middle block of the population of G(p^k, 0)."""
    n = p**k
    step = structure_maps._block_prefixes(n)
    start = (-(-(n**6) // step) // 2) * step
    return list(structure_maps.zero_perm_members(p, k, range(start, min(start + step, n**6))))


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_shift_check_matches_the_scatter_reference(p, k):
    # two head and two left-over batches of members, the same with one pivot
    # entry moved, and the same with about 5% of the entries redrawn, which
    # makes some columns non-members and mixes labels: each is checked split
    # by label
    n = p**k
    shifts = list(range(0, n, p))
    rng = np.random.default_rng([p, k])
    found = {"members": 0, "pivot moved": 0, "redrawn": 0}
    batches = middle_block_batches(p, k)
    picked = [e for e in batches if grid(e) == "head"][:2] + [e for e in batches if grid(e) == "left-over"][:2]
    assert len(picked) == 4
    for batch in picked:
        members = materialize(batch)
        moved = members.copy()
        lab, _ = label_pivot(members, n, p)
        moved[lab[0], 0] = (moved[lab[0], 0] + 1) % n
        redrawn = members.copy()
        hit = rng.random(redrawn.shape) < 0.05
        redrawn[hit] = rng.integers(0, n, size=int(hit.sum()))
        for name, batch in (("members", members), ("pivot moved", moved), ("redrawn", redrawn)):
            for e in by_label(batch, n, p):
                want = shift_verify_members_by_scatter(e, n, p, shifts, oracle._inverse_table(n))
                for t in (structure_maps._member_type(n), oracle._kernel_type(n), np.int64):
                    inv = oracle._inverse_table(n).astype(t)
                    assert verify._shift_verify(e.astype(t), n, p, shifts, inv) == want, (name, t)
                found[name] += sum(want.values())
    assert found["members"] == 0
    assert found["pivot moved"] > 0 and found["redrawn"] > 0


def grid_variants(batch, n, p):
    """The batch; one member's pivot entry moved; prefix 0 given a pivot in the other row or another label.

    A head batch has its pivots in row 1 and a left-over one in row 2.
    Giving prefix 0 of a head batch the rows 2 and 3 of a left-over prefix,
    or prefix 0 of a left-over batch a row 3 with three units, which makes
    P11, P12, P13 a unit for a row 2 that is not 0 mod p, makes a batch
    with pivots in both rows. Rows 2 and 3 of (0, 1, 0), (0, 0, 1) make
    P11 = 1, label 0, and (1, 0, 0), (0, 1, 0) make P11 = P12 = 0 and
    P13 = 1, label 2: one of them is another label than a head batch's.
    """
    lab, _ = label_pivot(materialize(batch)[:, :1], n, p)
    moved = [v.copy() for v in batch]
    moved[lab[0]][0, 0] = (moved[lab[0]][0, 0] + 1) % n  # moves the permanent by a unit
    mixed = [v.copy() for v in batch]
    if grid(batch) == "left-over":
        for v in mixed[6:]:
            v[0, 0] = 1
        return {"members": batch, "pivot moved": moved, "mixed": mixed}
    for v, entry in zip(mixed[3:], (1, 1, 0, n - 1, 1, 0)):  # P11, P12, P13 = 0, 0, n
        v[0, 0] = entry
    relabelled = [v.copy() for v in batch]
    for v, entry in zip(relabelled[3:], (1, 0, 0, 0, 1, 0) if lab[0] == 0 else (0, 1, 0, 0, 0, 1)):
        v[0, 0] = entry
    return {"members": batch, "pivot moved": moved, "mixed": mixed, "relabelled": relabelled}


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_grid_check_matches_the_scatter_reference(monkeypatch, p, k):
    # every batch of the middle block, plain and with one pivot entry moved; with
    # a prefix of pivots in the other row mixed in, or a head batch's prefix
    # of another row-1 label, it is refused, and its members split by label
    # match the reference. Then shift_round_trip over the block, under an
    # inverse table that is off by one, which only a shift by x != 0 reads. A
    # plain batch has one label
    n = p**k
    shifts = list(range(0, n, p))
    inv = oracle._inverse_table(n)
    batches = middle_block_batches(p, k)
    found = {"members": 0, "pivot moved": 0, "mixed": 0, "relabelled": 0}
    # a moved row-2 pivot entry can give its member a unit among P11, P12, P13
    want_parts = {"members": {1}, "pivot moved": {1, 2}, "mixed": {2, 3, 4, 5}, "relabelled": {2}}
    labels = set()
    for batch in batches:
        labels.add(int(label_pivot(materialize(batch)[:, :1], n, p)[0][0]))
        for name, e in grid_variants(batch, n, p).items():
            want = shift_verify_members_by_scatter(materialize(e), n, p, shifts, inv)
            parts = by_label(materialize(e), n, p)
            assert len(parts) in want_parts[name], name
            if len(parts) == 1:
                assert verify._shift_verify(e, n, p, shifts, inv) == want, name
            else:
                with pytest.raises(RuntimeError, match="one label"):
                    verify._shift_verify(e, n, p, shifts, inv)
                got = [verify._shift_verify(part, n, p, shifts, inv) for part in parts]
                assert {x: sum(g[x] for g in got) for x in shifts} == want, name
            found[name] += sum(want.values())
    assert labels == {0, 1, 2, 3, 4}  # head batches of each label, and left-over ones of both
    assert found["members"] == 0
    assert found["pivot moved"] > 0 and found["mixed"] > 0 and found["relabelled"] > 0

    def off_by_one(n):
        inverse = [pow(v, -1, n) if v % p else 0 for v in range(n)]
        return ((np.array(inverse) + 1) % n).astype(oracle._kernel_type(n))

    # shift_round_trip checks the batches above; the grids' own inverses stay right
    monkeypatch.setattr(structure_maps, "zero_perm_members", lambda *args: iter(batches))
    monkeypatch.setattr(oracle, "_inverse_table", off_by_one)
    bad = off_by_one(n)
    found = [shift_verify_members_by_scatter(materialize(e), n, p, shifts, bad) for e in batches]
    want = {x: sum(f[x] for f in found) for x in shifts}
    assert verify.shift_round_trip(p, k) == (sum(np.broadcast(*e).size for e in batches), want)
    assert (sum(want.values()) > 0) == (n > p)  # at k = 1 the only shift is x = 0


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_sampled_check_matches_the_scatter_reference(monkeypatch, p, k):
    # shift_round_trip's own seeded sample holds every label: the whole
    # sample is refused, and shift_round_trip checks it in five parts of the
    # member type, one label each, which match the reference. Then the same
    # with one member's pivot entry moved
    n = p**k
    t = structure_maps._member_type(n)
    inv = oracle._inverse_table(n)
    shifts = list(range(0, n, p))
    seen = []
    real_verify = verify._shift_verify

    def spy_verify(e, *args):
        seen.append((e.dtype, set(label_pivot(e, n, p)[0].tolist())))
        return real_verify(e, *args)

    monkeypatch.setattr(verify, "_shift_verify", spy_verify)
    checked, viols = verify.shift_round_trip(p, k, population=False)
    monkeypatch.undo()
    assert seen == [(np.dtype(t), {c}) for c in range(5)]
    rng = np.random.default_rng([verify.DEFAULT_SEED, zlib.crc32(f"shift-{p}-{k}".encode())])
    e = verify._sample_matrices(rng, n, checked, n)
    with pytest.raises(RuntimeError, match="one label"):
        verify._shift_verify(e.astype(t), n, p, shifts, inv)
    assert viols == shift_verify_members_by_scatter(e, n, p, shifts, inv) == {x: 0 for x in shifts}
    lab, _ = label_pivot(e, n, p)
    e[lab[0], 0] = (e[lab[0], 0] + 1) % n  # moves the permanent by a unit
    want = shift_verify_members_by_scatter(e, n, p, shifts, inv)
    assert want == {x: 1 for x in shifts}
    got = [verify._shift_verify(part.astype(t), n, p, shifts, inv) for part in by_label(e, n, p)]
    assert {x: sum(g[x] for g in got) for x in shifts} == want


def test_decided_images_are_expanded_on_the_members_own_forms(monkeypatch):
    # a head batch is expanded along row 1 on forms(row 2, row 3), and a
    # left-over batch along row 2 on forms(row 3, row 1): forms runs once per
    # batch, on the values of the batch's own per-prefix arrays, widened from
    # the unsigned member type to the signed kernel type, since forms
    # subtracts; the members and their images share its result
    p, k, n = 3, 2, 9
    shifts = [0, 3, 6]
    inv = oracle._inverse_table(n)
    batches = {}
    for e in structure_maps.zero_perm_members(p, k, range(64_000, 68_000)):
        batches.setdefault(grid(e), e)
    formed = []
    real_forms = verify.forms

    def spy_forms(r1, r2, n):
        formed.append((r1, r2))
        return real_forms(r1, r2, n)

    monkeypatch.setattr(verify, "forms", spy_forms)
    for name, rows in (("head", (1, 2)), ("left-over", (2, 0))):
        e = batches[name]
        formed.clear()
        assert verify._shift_verify(e, n, p, shifts, inv) == {x: 0 for x in shifts}
        ((r1, r2),) = formed
        want = [e[3 * r + i] for r in rows for i in range(3)]
        assert all(v.shape[0] == 1 and v.dtype == np.uint8 for v in want)
        assert all(a.dtype == oracle._kernel_type(n) and np.array_equal(a, b) for a, b in zip([*r1, *r2], want)), name


@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (7, 1)])
def test_shift_population_is_the_census_at_zero(p, k):
    checked, viols = verify.shift_round_trip(p, k)
    assert checked == oracle.census_tiered(p**k)[0]
    assert viols == {x: 0 for x in range(0, p**k, p)}


@pytest.mark.parametrize("p,chunk,blocks", [(3, oracle._CHUNK, 1), (5, oracle._CHUNK, 1), (3, 1000, 3), (5, 1000, 189)])
def test_shift_population_blocks_tile_every_prefix_in_order(monkeypatch, p, chunk, blocks):
    # the population's blocks are its only split: listed in order, each of
    # _block_prefixes(n) prefixes but the last, with no gap or overlap
    want = oracle.census_tiered(p)[0]
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    real_digits, listed = oracle._digits, []

    def spy_digits(idx, n, k):
        listed.append((idx.start, idx.stop))
        return real_digits(idx, n, k)

    monkeypatch.setattr(oracle, "_digits", spy_digits)
    assert verify.shift_round_trip(p, 1) == (want, {0: 0})
    step = structure_maps._block_prefixes(p)
    assert listed == [(s, min(s + step, p**6)) for s in range(0, p**6, step)]
    assert len(listed) == blocks


def test_quick_suite_passes_and_is_thread_independent():
    one = verify.run_suite("quick", threads=1)
    assert all(r.passed for r in one), [r.to_json() for r in one if not r.passed]
    assert not verify.coverage_gaps(one)
    two = verify.run_suite("quick", threads=2)
    assert verify.to_json_lines(one) == verify.to_json_lines(two)


ENGINES = (
    (oracle, "census_tiered"),
    (oracle, "class_census"),
    (oracle, "census_naive"),
    (oracle, "case_census"),
    (oracle, "census_2x2"),
    (structure_maps, "emptiness_scan"),
    (verify, "shift_round_trip"),
)


@pytest.mark.parametrize("threads", [1, 2])
def test_suite_computes_each_census_once_on_the_suites_threads(monkeypatch, threads):
    # the checks share the tiered and class censuses, computed once per
    # modulus; every engine call inside the suite is given the suite's
    # threads, but shift_round_trip, which takes none
    calls = {name: [] for _, name in ENGINES}
    for module, name in ENGINES:

        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name].append((args, kwargs.get("threads")))
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    assert all(r.passed for r in verify.run_suite("quick", threads=threads))
    assert all(made for made in calls.values()), calls
    assert all(t == threads for name, made in calls.items() if name != "shift_round_trip" for _, t in made), calls
    assert all(t is None for _, t in calls["shift_round_trip"])
    tiered = sorted(args for args, _ in calls["census_tiered"])
    classes = sorted(args for args, _ in calls["class_census"])
    assert tiered and tiered == sorted(set(tiered))
    assert classes == sorted({*verify.QUICK.class_moduli, *verify.QUICK.shift_pairs})


@pytest.mark.parametrize("threads", [1, 2])
def test_suite_progress_ticks_in_registration_order(threads):
    here, ticks = threading.get_ident(), []

    def progress(i, total, tag):
        assert threading.get_ident() == here
        ticks.append((i, total, tag))

    verify.run_suite("quick", threads=threads, progress=progress)
    total = len(verify._CHECKS)
    assert ticks == [(i, total, tag) for i, (tag, _) in enumerate(verify._CHECKS)] + [(total, total, "done")]


@pytest.mark.parametrize("threads", [1, 2])
def test_each_check_runs_between_its_tick_and_the_next(monkeypatch, threads):
    # the checks run one after another: check i starts after tick i and has
    # returned before tick i + 1, whatever the threads
    events = []

    def logged(i, fn):
        def check(ctx):
            events.append(("start", i))
            out = fn(ctx)
            events.append(("end", i))
            return out

        return check

    checks = [(tag, logged(i, fn)) for i, (tag, fn) in enumerate(verify._CHECKS)]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    verify.run_suite("quick", threads=threads, progress=lambda i, total, tag: events.append(("tick", i)))
    total = len(checks)
    assert events == [(e, i) for i in range(total) for e in ("tick", "start", "end")] + [("tick", total)]


class CheckFailed(Exception):
    pass


def test_raising_check_stops_the_checks_after_it(monkeypatch):
    # the second check raises, on two threads too: none of the checks after
    # it starts, and the caller gets its exception
    started, raised = [], CheckFailed("second check")

    def hold(ctx):
        started.append("hold")
        return []

    def fail(ctx):
        started.append("fail")
        raise raised

    def later(ctx):
        started.append("later")
        return []

    checks = [("hold", hold), ("fail", fail), ("later-1", later), ("later-2", later)]
    monkeypatch.setattr(verify, "_CHECKS", checks)
    with pytest.raises(CheckFailed) as info:
        verify.run_suite("quick", threads=2)
    assert info.value is raised
    assert sorted(started) == ["fail", "hold"]


def test_render_table_summarizes():
    results = [verify.result("demo", 1, 1, p=3), verify.result("demo", 1, 2, p=5)]
    text = verify.render_table(results)
    assert "1/2 checks passed" in text
    assert "FAIL" in text and "PASS" in text


_FORCED_MISMATCHES = """
import dataclasses, sys
import numpy as np
from gl3census import closed_form, oracle, structure_maps, verify
from gl3census.matrices import ClassLabel
from gl3census.modring import Residue


def raises(fn, match=""):
    try:
        fn()
    except RuntimeError as err:
        return match in str(err)
    return False


real_zero, real_rows = closed_form.count_prime_zero, closed_form.case_rows
closed_form.count_prime_zero = lambda p: real_zero(p) + 1
sum_check = raises(lambda: closed_form.case_rows(5))
closed_form.count_prime_zero = real_zero

structure_maps.permanent3 = lambda m: Residue(0, m.modulus)
member = structure_maps.witness(ClassLabel.C11, 3, 2)
shift_check = raises(lambda: structure_maps.psi_shift(member, 3, 3))

closed_form.case_rows = lambda p: tuple(reversed(real_rows(p)))
ctx = verify._Ctx(dataclasses.replace(verify.QUICK, case_primes=(3,)), seed=0)
key_check = raises(lambda: verify._case_table(ctx))

# bucket rows one higher at every permanent keep the division by 6 exact, as it
# comes before the contraction, but leave the left-over counts mod 3 off
# multiples of p^2 = 9 (mod 9 every pair weight is a multiple of 9)
real_rows = oracle._bucket_rows
oracle._bucket_rows = lambda p, k: real_rows(p, k) + 1
square_check = raises(lambda: oracle._class_scan(3, 1), "multiples of p^2")
oracle._bucket_rows = real_rows

# the first-row triple (1, 5, 5), exponents (0, 1, 1), one heavier and
# (5, 5, 5), exponents (1, 1, 1), one lighter still weigh 5^3, but leave the
# six-fold class tallies mod 5 inexact; one more row in all leaves the
# first-row weights off p^(3k)
real_divisor_rows = oracle._divisor_rows
sizes = real_divisor_rows(5, 1)
moved, triples = sizes.copy(), oracle._sorted_triples(2).T.tolist()
moved[triples.index([0, 1, 1])] += 1
moved[triples.index([1, 1, 1])] -= 1
oracle._divisor_rows = lambda p, k: moved
six_check = raises(lambda: oracle._class_scan(5, 1), "multiples of 6")
oracle._divisor_rows = lambda p, k: sizes + (np.arange(len(sizes)) == 0)
cover_check = raises(lambda: oracle.census_tiered(5), "first-row triples mod 5^1 weigh 126")
oracle._divisor_rows = real_divisor_rows

# one table entry one higher leaves its row off p^(3k); a live orbit's weight
# moved onto the zero second row keeps the row's sum, but leaves the case
# census's live prefixes short
real_table = oracle._prime_power_table
table = real_table(5, 1).copy()
table[0, 3, 3, 0] += 1
oracle._prime_power_table = lambda p, k: table
table_check = raises(lambda: oracle.census_tiered(10), "p^(3k)")
table = real_table(5, 1).copy()
u, z, key = np.argwhere(table[0, :, 1:] >= 4)[0]
table[0, u, z + 1, key] -= 4
table[0, 0, 0, -1] += 4
case_check = raises(lambda: oracle.case_census(5), "case census mod 5")
oracle._prime_power_table = real_table

# the first head batch of (3, 2) has label 0; rows 2 and 3 of (1, 0, 0), (0, 1, 0) give prefix 0 label 2
batch = [v.copy() for v in next(structure_maps.zero_perm_members(3, 2))]
for v, entry in zip(batch[3:], (1, 0, 0, 0, 1, 0)):
    v[0, 0] = entry
inv = oracle._inverse_table(9)
label_check = raises(lambda: verify._shift_verify(batch, 9, 3, [0, 3, 6], inv), "one label")
checks = (sum_check, shift_check, key_check, square_check, six_check, cover_check, table_check, case_check, label_check)
print(sys.flags.optimize, *checks)
"""


def test_invariants_raise_under_python_O():
    src = os.path.dirname(os.path.dirname(os.path.abspath(gl3census.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FORCED_MISMATCHES],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["1"] + ["True"] * 9


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
