import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import (
    grid,
    label_pivot,
    materialize,
    member_groups,
    members_per_prefix_by_filter,
    prefix_index,
    zero_perm_members_by_filter,
)

from gl3census import oracle
from gl3census import structure_maps as sm
from gl3census.matrices import (
    CLASS_LABELS,
    ClassLabel,
    classify,
    is_invertible,
    mat3,
    perm_det,
    permanent3,
)
from gl3census.oracle import CensusTooLarge


def test_witness_examples():
    assert sm.witness(ClassLabel.C11, 5, 1, 0).rows == ((2, 3, 0), (1, 1, 0), (0, 0, 1))
    assert sm.witness(ClassLabel.C21, 3, 1, 0).rows == ((0, 0, 1), (1, 1, 0), (2, 1, 0))
    assert sm.witness(ClassLabel.C22, 5, 1, 5).rows == ((1, 1, 1), (0, 1, 1), (0, 1, 4))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2])
def test_witnesses_are_valid(p, k):
    n = p**k
    for x in range(0, n, p):
        for lab in CLASS_LABELS:
            w = sm.witness(lab, p, k, x)
            assert permanent3(w).value == x
            assert is_invertible(w)
            assert classify(w, p) is lab


def test_witness_rejections():
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.C11, 2, 1, 0)
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.C11, 5, 1, 2)  # x not divisible by p
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.NON_INVERTIBLE, 5, 1, 0)


def test_psi_shift_example_mod_nine():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    assert permanent3(m).value == 0 and classify(m, 3) is ClassLabel.C11
    r = sm.psi_shift(m, 3, 3)
    assert r.image.rows == ((7, 5, 0), (1, 1, 0), (0, 0, 1))
    assert r.position == (1, 1) and r.amount.value == 3
    assert permanent3(r.image).value == 3


def test_psi_shift_zero_is_identity():
    m = sm.witness(ClassLabel.C13, 7, 2, 14)
    r = sm.psi_shift(m, 0, 7)
    assert r.image == m


def test_psi_shift_round_trip_pairs():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    for x in (3, 6):
        forward = sm.psi_shift(m, x, 3)
        back = sm.psi_shift(forward.image, 9 - x, 3)
        assert back.image == m


def test_psi_shift_errors():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    with pytest.raises(sm.ShiftNotDivisible):
        sm.psi_shift(m, 2, 3)
    # P13 = 0 for this matrix, so the C13 pivot cannot be used
    with pytest.raises(sm.PivotNotUnit):
        sm.psi_shift(m, 3, 3, label=ClassLabel.C13)
    with pytest.raises(ValueError):
        sm.psi_shift(mat3(((0, 0, 0),) * 3, 9), 3, 3)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([(3, 2), (5, 2)]),
    st.lists(st.integers(min_value=0, max_value=24), min_size=9, max_size=9),
    st.integers(min_value=1, max_value=4),
)
def test_psi_shift_properties_random(pk, entries, mult):
    p, k = pk
    n = p**k
    m = mat3((entries[0:3], entries[3:6], entries[6:9]), n)
    if not is_invertible(m):
        return
    x = (mult * p) % n
    r = sm.psi_shift(m, x, p)
    assert permanent3(r.image).value == (permanent3(m).value + x) % n
    assert is_invertible(r.image)
    assert classify(r.image, p) is classify(m, p)
    assert sm.psi_shift(r.image, (n - x) % n, p).image == m


def test_project_examples():
    target = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    pre1 = mat3(((4, 0, 0), (2, 1, 2), (1, 1, 1)), 9)
    pre2 = mat3(((1, 3, 0), (2, 1, 2), (1, 1, 1)), 9)
    assert permanent3(pre1).value == 3
    assert permanent3(pre2).value == 6
    assert sm.project(pre1, 3) == target
    assert sm.project(pre2, 3) == target
    ident9 = mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 9)
    assert sm.project(ident9, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        sm.project(ident9, 2)


def test_fiber_count_example():
    a = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    assert sm.fiber_count(a, 3, 1) == 1
    assert sm.fiber_count(a, 3, 2) == 3**9
    # at k = 1 the one lift's digits (mod 1) are int8, but the kernel mod 127 on large entries needs int32
    b = mat3(((120, 123, 115), (124, 110, 112), (114, 125, 103)), 127)
    assert sm.fiber_count(b, 127, 1) == 1


def test_fiber_count_ticks_once_per_chunk_of_lifts():
    # 5^9 lifts mod 25 span two chunks of 2^20; every lift of an invertible
    # matrix with permanent 0 mod 5 is invertible with permanent divisible by 5
    a = sm.witness(ClassLabel.C12, 5)
    seen = []
    assert sm.fiber_count(a, 5, 2, progress=lambda *t: seen.append(t)) == 5**9
    assert seen == [(1 << 20, 5**9), (5**9, 5**9)]
    seen.clear()
    assert sm.fiber_count(a, 5, 1, progress=lambda *t: seen.append(t)) == 1
    assert seen == [(1, 1)]


def test_fiber_count_preconditions():
    good = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    with pytest.raises(CensusTooLarge):
        sm.fiber_count(good, 3, 3)  # 3^18 lifts > 2^27
    with pytest.raises(ValueError):
        sm.fiber_count(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3), 3, 2)  # perm 1
    with pytest.raises(ValueError):
        sm.fiber_count(mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 9), 3, 2)  # not over Z/p


@pytest.mark.parametrize(
    "p,k,order",
    [
        (2, 1, 168),
        (3, 1, 11232),
        (2, 2, 2**9 * 168),
        (5, 1, 124 * 120 * 100),
        (7, 1, 342 * 336 * 294),
    ],
)
def test_emptiness_scan_small(p, k, order):
    report = sm.emptiness_scan(p, k)
    assert report.violations == 0
    assert report.scanned == order


def flat_index(e, n):
    """Each of the (9, m) members' row-major entries as one base-n number, in int64."""
    return sum(e[i].astype(np.int64) * n**i for i in range(9))


def members(p, k, prefixes=None, of=("head", "left-over")):
    """The members zero_perm_members lists, in order, as flat indices; of names the grids to take."""
    batches = [e for e in sm.zero_perm_members(p, k, prefixes) if grid(e) in of]
    return np.concatenate([flat_index(materialize(e), p**k) for e in batches])


# at (3, 2), 4,000 prefixes that hold every label group of both grids: head
# labels 0, 1 and 2 (prefixes as rows 2 and 3) and left-over labels 3 and 4
# (prefixes as rows 1 and 3)
DENSE_NINE = range(64_000, 68_000)


def test_dense_nine_holds_every_group():
    groups = member_groups(3, 2, DENSE_NINE)
    assert len(groups) == 5 and all(count > 0 for count in groups.values())


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zero_perm_members_match_filter_scan(p):
    # each grid lists exactly its members: the head grid those with a unit
    # among P11, P12, P13, the left-over grid the others; each once
    filtered = {"head": [], "left-over": []}
    for e, head in zero_perm_members_by_filter(p):
        filtered["head"].append(flat_index(e[:, head], p))
        filtered["left-over"].append(flat_index(e[:, ~head], p))
    for name, want in filtered.items():
        got = members(p, 1, of=(name,))
        assert np.array_equal(np.sort(got), np.sort(np.concatenate(want))), name


@pytest.mark.parametrize("p,k,want", [(3, 1, 432), (5, 1, 19_200), (7, 1, 190_512), (3, 2, 2_834_352)])
def test_leftover_grid_lists_the_members_with_pivot_in_row_two(p, k, want):
    # the members with no unit among P11, P12, P13, (p - 1) p^(2(k - 1)) over
    # each prefix that has any: 13% of G(9, 0)
    listed = 0
    for e in sm.zero_perm_members(p, k):
        if grid(e) == "left-over":
            assert e[3].shape[0] == (p - 1) * p ** (2 * (k - 1))
            listed += np.broadcast(*e).size
    assert listed == want


@pytest.mark.parametrize("n", [5, 7])
def test_zero_perm_members_over_two_halves_equal_the_whole(n):
    half = n**6 // 2  # not a block boundary of the whole range
    halves = np.concatenate([members(n, 1, range(half)), members(n, 1, range(half, n**6))])
    assert np.array_equal(np.sort(halves), np.sort(members(n, 1)))


def prefix_counts(p, k, prefixes):
    """Members each grid lists over each prefix of the range, by the prefix index of each member."""
    n = p**k
    counts = {name: np.zeros(len(prefixes), dtype=np.int64) for name in ("head", "left-over")}
    for e in sm.zero_perm_members(p, k, prefixes):
        rows = (1, 2) if grid(e) == "head" else (0, 2)
        index = prefix_index(materialize(e), n, rows) - prefixes.start
        counts[grid(e)] += np.bincount(index, minlength=len(prefixes))
    return counts["head"], counts["left-over"]


@pytest.mark.parametrize("p,k,samples", [(3, 1, None), (5, 1, None), (3, 2, 32)])
def test_only_members_are_listed_and_all_of_them(p, k, samples):
    # the grids list, over every prefix, exactly the members the filter finds
    # among all n^3 solved rows: the head grid over rows 2 and 3, the
    # left-over grid over rows 1 and 3. Every prefix at (3, 1) and (5, 1); at
    # (3, 2), 32 seeded runs of 64 prefixes and DENSE_NINE
    n = p**k
    if samples is None:
        ranges = [range(n**6)]
    else:
        starts = np.random.default_rng([p, k]).integers(0, n**6 - 64, size=samples)
        ranges = [range(s, s + 64) for s in starts.tolist()] + [DENSE_NINE]
    listed = [0, 0]
    for prefixes in ranges:
        want = members_per_prefix_by_filter(p, k, prefixes)
        got = prefix_counts(p, k, prefixes)
        for i in range(2):
            assert np.array_equal(got[i], want[i]), (prefixes, i)
            listed[i] += int(want[i].sum())
    assert min(listed) > 0


@pytest.mark.parametrize(
    "p,k,prefixes", [(3, 1, None), (5, 1, None), (7, 1, None), (3, 2, DENSE_NINE)]
)
def test_zero_perm_member_batches_hold_at_most_a_block(p, k, prefixes):
    # head batches hold at most 4 _BLOCK members, left-over batches 2 _BLOCK,
    # in one-byte entries: as many bytes as 2 _BLOCK and _BLOCK int16 members
    batches = list(sm.zero_perm_members(p, k, prefixes))
    assert max(np.broadcast(*e).size for e in batches) <= 4 * oracle._BLOCK
    assert max(np.broadcast(*e).size for e in batches if grid(e) == "left-over") <= 2 * oracle._BLOCK
    assert sm._member_type(p**k) is np.uint8
    # the layout: the solved row per member, the other two per prefix
    for e in batches:
        solved = 0 if grid(e) == "head" else 1
        (L, G), t = e[3 * solved].shape, sm._member_type(p**k)
        for r in range(3):
            shape = (L, G) if r == solved else (1, G)
            assert all(v.shape == shape and v.dtype == t for v in e[3 * r : 3 * r + 3])


def test_full_head_batches_hold_four_blocks_of_members():
    # a whole block of 26,214 prefixes at (3, 2) fills head batches to
    # 4 _BLOCK members less what a prefix's 54 members leave over; its
    # left-over prefixes (18 members each) stay within 2 _BLOCK members
    n = 9
    step = sm._block_prefixes(n)
    sizes = {"head": [], "left-over": []}
    for e in sm.zero_perm_members(3, 2, range(9 * step, 10 * step)):
        sizes[grid(e)].append(np.broadcast(*e).size)
    assert max(sizes["head"]) == 4 * oracle._BLOCK // 54 * 54
    assert max(sizes["left-over"]) <= 2 * oracle._BLOCK


@pytest.mark.parametrize(
    "p,k,prefixes", [(3, 1, None), (5, 1, None), (7, 1, range(20_000)), (3, 2, DENSE_NINE)]
)
def test_zero_perm_member_batches_share_one_head_label(p, k, prefixes):
    # every member of a batch has one label, the first unit among its five
    # sub-permanents: a head batch's is below 3, its pivot in row 1, and a
    # left-over batch's 3 or 4, its pivot in row 2
    labels = set()
    for e in sm.zero_perm_members(p, k, prefixes):
        lab, _ = label_pivot(materialize(e), p**k, p)
        lab = np.unique(lab)
        assert lab.size == 1
        assert (lab[0] < 3) == (grid(e) == "head")
        labels.add(int(lab[0]))
    assert labels == {0, 1, 2, 3, 4}


@pytest.mark.parametrize("block", [100, 1000])
def test_zero_perm_members_do_not_depend_on_the_block_budget(monkeypatch, block):
    # a prefix holds L = 54 members in the head grid and 18 in the left-over
    # grid, so these budgets put one prefix in a batch, or a few
    want = members(3, 2, DENSE_NINE)
    monkeypatch.setattr(oracle, "_BLOCK", block)
    batches = list(sm.zero_perm_members(3, 2, DENSE_NINE))
    assert max(np.broadcast(*e).size for e in batches) <= max(4 * block, 54)
    assert np.array_equal(np.concatenate([flat_index(materialize(e), 9) for e in batches]), want)


def test_zero_perm_members_rejects_bad_prefix_ranges():
    for prefixes in (range(0, 10, 2), range(-1, 5), range(3**6 + 1)):
        with pytest.raises(ValueError, match="prefixes"):
            next(sm.zero_perm_members(3, 1, prefixes))


def test_zero_perm_members_at_nine_are_all_distinct_members():
    # the filter scan is too slow at 9^9 matrices; count, distinctness and membership instead
    n = 9
    want = oracle.census_tiered(n)[0]
    flat = np.empty(want, dtype=np.uint32)  # 9^9 < 2^32
    filled = 0
    unit = oracle._unit_mask(n)
    for batch in sm.zero_perm_members(3, 2):
        assert all(v.dtype == np.uint8 for v in batch)
        e = materialize(batch)
        assert filled + e.shape[1] <= want
        perm, det = perm_det(e.astype(np.int64), n)
        assert (perm == 0).all() and unit[det].all()
        flat[filled : filled + e.shape[1]] = flat_index(e, n)
        filled += e.shape[1]
    assert filled == want
    flat.sort()
    assert (flat[1:] != flat[:-1]).all()


@pytest.mark.parametrize("n,want", [(3, np.uint8), (9, np.uint8), (10, np.uint8), (11, np.uint16), (127, np.uint16)])
def test_member_type_is_the_narrowest_unsigned_type_for_three_squares(n, want):
    # every value the member path forms is at most 3 (n - 1)^2: 243 at 10, 300 at 11
    bound = 3 * (n - 1) ** 2
    assert sm._member_type(n) is want
    assert bound <= np.iinfo(want).max and (want is np.uint8 or bound > np.iinfo(np.uint8).max)


def test_zero_perm_members_past_ten_are_listed_in_a_wider_type():
    # a direct call at 11, past the population scan's range, lists uint16 members
    n = 11
    batches = list(sm.zero_perm_members(n, 1, range(20_000)))
    assert {v.dtype for e in batches for v in e} == {np.dtype(np.uint16)}
    assert {grid(e) for e in batches} == {"head", "left-over"}
    e = np.concatenate([materialize(e) for e in batches], axis=1)
    perm, det = perm_det(e, n)
    assert (perm == 0).all() and oracle._unit_mask(n)[det].all()


def test_grid_values_fit_the_member_type(monkeypatch):
    # the grids form row1[c] and row2[c] from two products of residues, at
    # most 2 (n - 1)^2 = 128 at n = 9. With every basis entry at its largest
    # residue, the one-byte batches equal those listed in int64, and the
    # largest value that mod receives reaches that bound
    n = 9
    real_basis, real_leftover, real_mod = sm._member_basis, sm._leftover_basis, sm.mod

    def largest_scale(prefix, p, k):
        head, key, scale = real_basis(prefix, p, k)
        return head, key, np.full_like(scale, n - 1)

    def largest_solve(prefix, p, k):
        col, w, solve = real_leftover(prefix, p, k)
        return col, np.full_like(w, p - 1), np.full_like(solve, n - 1)

    largest = []

    def spy_mod(a, m, **out):
        largest.append(int(np.max(a)))
        return real_mod(a, m, **out)

    monkeypatch.setattr(sm, "_member_basis", largest_scale)
    monkeypatch.setattr(sm, "_leftover_basis", largest_solve)
    monkeypatch.setattr(sm, "mod", spy_mod)
    narrow = list(sm.zero_perm_members(3, 2, DENSE_NINE))
    assert max(largest) == 2 * (n - 1) ** 2
    monkeypatch.setattr(sm, "_member_type", lambda n: np.int64)
    wide = list(sm.zero_perm_members(3, 2, DENSE_NINE))
    assert len(narrow) == len(wide) > 0
    for a, b in zip(narrow, wide):
        assert all(u.dtype == np.uint8 and v.dtype == np.int64 and np.array_equal(u, v) for u, v in zip(a, b))


def test_each_block_is_listed_once_for_both_grids(monkeypatch):
    # blocks of 202 prefixes at n = 9: one listing of digits per block, the
    # head grid's batches before the left-over grid's, each basis formed
    # over the halves of a block, and the head grid's block tables gone
    # before the left-over grid builds its own
    monkeypatch.setattr(oracle, "_CHUNK", 100 * 81)
    step = sm._block_prefixes(9)
    assert step == 202
    prefixes = range(64_000, 64_450)
    real_digits, real_parts, real_basis = oracle._digits, sm._in_halves, sm._member_basis
    listed, parts, tables = [], [], []

    def spy_digits(idx, n, k):
        listed.append(idx)
        return real_digits(idx, n, k)

    def spy_basis(prefix, p, k):
        parts.append(prefix[0].size)
        return real_basis(prefix, p, k)

    def spy_parts(basis, entries, p, k):
        if basis is sm._leftover_basis:
            assert all(ref() is None for ref in tables)
        out = real_parts(basis, entries, p, k)
        if basis is spy_basis:
            tables.extend(weakref.ref(v) for v in out)
        return out

    monkeypatch.setattr(oracle, "_digits", spy_digits)
    monkeypatch.setattr(sm, "_in_halves", spy_parts)
    monkeypatch.setattr(sm, "_member_basis", spy_basis)
    order = []
    for e in sm.zero_perm_members(3, 2, prefixes):
        rows = (1, 2) if grid(e) == "head" else (0, 2)
        block = np.unique((prefix_index(materialize(e), 9, rows) - prefixes.start) // step)
        assert block.size == 1
        order.append((int(block[0]), grid(e)))
    assert listed == [range(s, min(s + step, prefixes.stop)) for s in range(prefixes.start, prefixes.stop, step)]
    assert parts == [101, 101, 101, 101, 23, 23] and len(tables) == 3 * 3
    assert order == sorted(order) and {b for b, _ in order} == {0, 1, 2}
    assert {g for _, g in order} == {"head", "left-over"}
