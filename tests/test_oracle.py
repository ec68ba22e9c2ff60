import collections
import dataclasses
import functools
import gc
import itertools
import math
import threading
import time
import tracemalloc
import weakref

import numpy as np
import pytest

from gl3census import closed_form as cf
from gl3census import oracle, verify
from gl3census import structure_maps as sm
from gl3census.matrices import CLASS_LABELS, ClassLabel, forms, mat3, mod, perm_det_subperms
from gl3census.modring import factorize, is_prime
from support import (
    CASE_ROWS,
    CENSUS2,
    CENSUS3,
    CLASS_TABLE,
    divisor_rows_by_itertools,
    gcd_keys,
    hnf_by_euclid,
    naive_joint_by_matrix,
    normal_forms_by_meshgrid,
    object_census3,
    row_orbits_by_crt_loop,
    row_orbits_by_unit_minimum,
    subgroup_rows,
    third_row_counts_generic,
)


@pytest.mark.parametrize("n", sorted(CENSUS3))
def test_tiered_census_matches_frozen(n):
    assert oracle.census_tiered(n).counts == CENSUS3[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_naive_equals_tiered(n):
    assert oracle.census_naive(n).counts == oracle.census_tiered(n).counts


@pytest.mark.parametrize("n", [2, 3])
def test_engines_match_object_level_census(n):
    expected = object_census3(n)
    assert oracle.census_naive(n).counts == expected
    assert oracle.census_tiered(n).counts == expected


def test_census_totals_are_group_orders():
    for n in (2, 3, 4, 5, 6, 9, 12):
        expected = math.prod(cf.gl3_order(p, k) for p, k in factorize(n).factors)
        assert oracle.census_tiered(n).total() == expected


def test_census_2x2_matches_frozen():
    for n, row in CENSUS2.items():
        assert oracle.census_2x2(n).counts == row


def test_bounds_are_enforced(monkeypatch):
    with pytest.raises(oracle.CensusTooLarge) as err:
        oracle.census_naive(9)
    assert "n <= 8" in str(err.value)
    with pytest.raises(oracle.CensusTooLarge):
        oracle.census_tiered(128)
    with pytest.raises(oracle.CensusTooLarge):
        oracle.census_2x2(108)
    # the naive engine is bounded by the scan budget alone: 9^9 admits n = 9
    monkeypatch.setattr(oracle, "SCAN_BUDGET", 9**9)
    assert oracle.census_naive(9).counts == CENSUS3[9]


def test_count_table_accessors():
    t = oracle.census_tiered(6)
    assert t[1] == t[7] == 665280
    assert t.n == 6
    with pytest.raises(ValueError):
        oracle.CountTable(factorize(5), (1, 2))


def test_class_census_small():
    cc = oracle.class_census(3, 1)
    assert cc.counts[0] == CLASS_TABLE[3][1:]
    assert cc.marginal().counts == CENSUS3[3]
    for x in range(3):
        assert sum(cc.counts[x]) == CENSUS3[3][x]


def test_class_census_prime_power():
    cc = oracle.class_census(3, 2)
    assert cc.counts[0] == CLASS_TABLE[9][1:]
    assert cc.marginal().counts == CENSUS3[9]
    # per-class counts repeat across permanents divisible by p
    assert cc.counts[3] == cc.counts[0]
    assert cc.counts[6] == cc.counts[0]


def _class_sweep(p, k):
    """(n, 5) class tallies and violations of all n^9 matrices mod p^k, with no symmetry."""
    n = p**k
    first = [(np.arange(n**3, dtype=np.int32) // n**t % n)[None, :] for t in range(3)]
    counts = np.zeros(6 * n, dtype=np.int64)
    for start in range(0, n**6, 1024):
        idx = np.arange(start, min(start + 1024, n**6), dtype=np.int32)
        e = [*first, *((idx // n**t % n)[:, None] for t in range(6))]
        perm, det, *subs = perm_det_subperms(e, n)
        units = [np.broadcast_to(v % p != 0, perm.shape) for v in subs]
        label = np.argmax(np.stack([*units, np.ones_like(perm, dtype=bool)]), axis=0)
        counts += np.bincount((label * n + perm)[det % p != 0], minlength=6 * n)
    counts = counts.reshape(6, n)
    return counts[:5].T, int(counts[5].sum())


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (5, 1), (7, 1)])
def test_class_scan_matches_symmetry_free_sweep(p, k):
    counts, violations = oracle._class_scan(p, k)
    expected, expected_violations = _class_sweep(p, k)
    assert counts.tolist() == expected.tolist()
    assert violations == expected_violations == 0


def _member_sweep(rep2, rep3, p, n):
    """C21, C22 and violation tallies of the prefixes a left-over pair stands for, and their number.

    Those are, for each row r2 = rep2 D in rep2's orbit under unit column
    scaling (one unit diagonal D per row), the rows u rep3 D for units u; each
    prefix is swept against all n^3 first rows.
    """
    units = np.array([u for u in range(1, n) if math.gcd(u, n) == 1])
    diag = np.array(list(itertools.product(units, repeat=3)))
    rows2, first_d = np.unique(diag * rep2 % n, axis=0, return_index=True)
    prefixes = np.unique(
        [[*r2, *(u * rep3 * d % n)] for r2, d in zip(rows2, diag[first_d]) for u in units], axis=0
    ).astype(oracle._kernel_type(n))
    first = [(np.arange(n**3) // n**t % n).astype(prefixes.dtype)[None, :] for t in range(3)]
    counts = np.zeros(3 * n, dtype=np.int64)
    for s in range(0, len(prefixes), 256):
        e = [*first, *(prefixes[s : s + 256, [c]] for c in range(6))]
        perm, det, _, _, _, p21, p22 = perm_det_subperms(e, n)
        label = np.where(mod(p21, p) != 0, 0, np.where(mod(p22, p) != 0, 1, 2))
        counts += np.bincount((label * n + perm)[mod(det, p) != 0], minlength=3 * n)
    return counts.reshape(3, n), len(prefixes)


@pytest.mark.parametrize("p,k,pairs", [(3, 2, None), (5, 2, 2), (3, 3, 2)])
def test_leftover_tally_matches_member_sweep(p, k, pairs):
    # left-over pairs with an invertible completion; at p = 2 there are none,
    # and at k = 1 their permanents are all 0, so these pin the division of
    # each valuation class's tally by its size and its invariance under unit
    # column scaling. Row 2 runs over the class census's ordered divisor
    # triples; at (5, 2) and (3, 3) the lightest pairs come first, and at
    # (3, 3) the second of them reaches the permanents of valuation 2 and 3.
    n = p**k
    c = oracle._orbit_tables(n, True)
    rows2, o, val = c.first, c.second, oracle._valuations(p, k)
    i, j = np.indices((len(rows2.sizes), len(o.sizes))).reshape(2, -1)
    A, B, C, D, E, F = (v % p for v in forms([v[i] for v in rows2.reps], [v[j] for v in o.reps], n))
    left = np.flatnonzero((A == 0) & (B == 0) & (C == 0) & ((D != 0) | (E != 0) | (F != 0)))
    weights = rows2.sizes[i] * o.sizes[j]
    left = left[np.argsort(weights[left], kind="stable")]
    reached = set()
    for pair in left[:pairs]:
        tally = oracle._leftover_tally(c, i[[pair]], j[[pair]], p, k, val)
        reps = [np.array([int(v[x]) for v in r.reps]) for r, x in ((rows2, i[pair]), (o, j[pair]))]
        sweep, members = _member_sweep(*reps, p, n)
        assert members == weights[pair]
        assert tally.tolist() == sweep.tolist(), reps
        reached |= set(val[np.flatnonzero(tally.sum(axis=0))].tolist())
    assert reached == set(range(1, k + 1))


def _prime_powers(bound):
    return [(p, k) for p in range(2, bound + 1) if is_prime(p) for k in range(1, 8) if p**k <= bound]


def test_valuations_match_brute_force():
    powers = _prime_powers(oracle.INT64_CEILING)
    assert len(powers) == 43
    for p, k in powers:
        want = [k] + [max(t for t in range(k) if v % p**t == 0) for v in range(1, p**k)]
        assert oracle._valuations(p, k).tolist() == want, (p, k)


def test_valuation_classes_are_the_unit_orbits():
    # the class of valuation g is the unit orbit of p^g: phi(p^(k - g)) residues, 0 alone at g = k
    for p, k in _prime_powers(oracle.INT64_CEILING):
        n = p**k
        val = oracle._valuations(p, k)
        units = np.flatnonzero(oracle._unit_mask(n))
        sizes = [p ** (k - g) - p ** (k - g - 1) for g in range(k)] + [1]
        assert np.bincount(val, minlength=k + 1).tolist() == sizes, (p, k)
        for g in range(k + 1):
            assert np.flatnonzero(val == g).tolist() == np.unique(units * p**g % n).tolist(), (p, k, g)


def test_class_census_rejects_composites():
    with pytest.raises(ValueError):
        oracle.class_census(6)


def test_case_census_matches_frozen():
    for p, rows in CASE_ROWS.items():
        observed = oracle.case_census(p)
        assert tuple(r.count for r in observed.rows) == rows
        assert observed.total() == CENSUS3[p][0]
        assert observed.count(2, 2) == rows[2]


def test_case_census_rejects_bad_p():
    with pytest.raises(ValueError):
        oracle.case_census(2)
    with pytest.raises(ValueError):
        oracle.case_census(9)


@pytest.fixture
def cold_tables():
    """The per-modulus tables' cache cleared before and after: no record built under a patch outlives the test."""
    oracle._modulus_tables.cache_clear()
    yield
    oracle._modulus_tables.cache_clear()


@pytest.mark.parametrize("live", ["zero row too", "one orbit short"])
def test_case_census_guards_its_live_weight(monkeypatch, cold_tables, live):
    # walking the zero row puts weight on pattern 7, whose bucket counts are
    # all 0; skipping a live orbit leaves the tally short of p^6 - (2 p^3 - 1)
    real = oracle._row_orbits

    def row_orbits(n):
        o = real(n)
        if live == "zero row too":
            return dataclasses.replace(o, live=np.ones_like(o.live))
        mask = o.live.copy()
        mask[np.flatnonzero(mask)[0]] = False
        return dataclasses.replace(o, live=mask)

    monkeypatch.setattr(oracle, "_row_orbits", row_orbits)
    with pytest.raises(RuntimeError, match="case census mod 5"):
        oracle.case_census(5)


def _divisors(n):
    return [v for v in range(1, n + 1) if n % v == 0]


def _signature(a, g):
    """Forms (A, B, C, D, E, F) of the gcds a of the minors and g of A, B, C, with d = 1: <(a, 0), (g, 1)>."""
    return (a, g, 0, 0, 1, 0)


def _closed_form_keys(n):
    """(a, g, key) for every g | a | n: the live keys, each the key of its signature."""
    pairs = [(a, g) for a in _divisors(n) for g in _divisors(a)]
    keys = gcd_keys(n, np.array([_signature(a % n, g % n) for a, g in pairs]).T)
    return [(a, g, int(key)) for (a, g), key in zip(pairs, keys)]


@pytest.mark.parametrize("n", range(1, 33))
def test_bucket_tables_match_third_row_sweep(n):
    # the row of key (a, g) is the third-row sweep of its signature
    rows = oracle._bucket_rows(n)
    for a, g, key in _closed_form_keys(n):
        assert rows[key].tolist() == third_row_counts_generic(_signature(a % n, g % n), n).tolist(), (a, g)


def test_generic_counts_random_signatures():
    rng = np.random.default_rng(7)
    for n in (4, 6, 9, 12):
        rows = oracle._bucket_rows(n)
        for _ in range(25):
            sig = tuple(int(v) for v in rng.integers(0, n, 6))
            # bucketing a signature through its gcd key gives the same counts
            assert third_row_counts_generic(sig, n).tolist() == rows[gcd_keys(n, sig)].tolist(), sig


@pytest.mark.parametrize("n", [1, 2, 12, 16, 30, 36, 60, 64, 81, 96, 105, 120, 125, 127])
def test_hnf_buckets_match_the_per_prefix_reduction(n):
    # the row read through a prefix's gcd key is the row of the subgroup its
    # columns span, reduced to Hermite normal form one prefix at a time and
    # listed element by element
    rng = np.random.default_rng(n)
    divisors = _divisors(n)
    rows = oracle._bucket_rows(n)
    # random forms times random divisors, so that small subgroups come up too
    sig = rng.integers(0, n, (6, 1000)) * rng.choice(divisors, (6, 1000)) % n
    r1, r2 = rng.integers(0, n, size=(2, 3, 1000))
    for f in (list(sig), forms(list(r1), list(r2), n)):
        triples, sid = np.unique(np.stack(hnf_by_euclid(n, f)), axis=1, return_inverse=True)
        assert (rows[gcd_keys(n, f)] == subgroup_rows(n, *triples)[sid.ravel()]).all()


@pytest.mark.parametrize("n", range(2, 33))
def test_bucket_symmetries_of_the_orbit_pass(n):
    # unit row and column scaling keep a prefix's gcd key; column
    # permutations and the row swap may negate the determinant coordinate,
    # and keep the bucket's third-row counts
    rng = np.random.default_rng(n)
    rows = oracle._bucket_rows(n)
    units = np.flatnonzero(oracle._unit_mask(n))
    r1, r2 = rng.integers(0, n, size=(2, 3, 200))

    def key(a, b):
        return gcd_keys(n, forms(list(a), list(b), n))

    base = key(r1, r2)
    u, v = rng.choice(units, size=(2, 1, 200))
    assert (key(r1 * u % n, r2 * v % n) == base).all()
    d = rng.choice(units, size=(3, 200))
    assert (key(r1 * d % n, r2 * d % n) == base).all()
    for cols in itertools.permutations(range(3)):
        assert (rows[key(r1[list(cols)], r2[list(cols)])] == rows[base]).all(), cols
    assert (rows[key(r2, r1)] == rows[base]).all()


@pytest.mark.parametrize("n", range(1, 17))
def test_divisor_rows_match_gcd_classes(n):
    # group all n^3 rows by their triple of gcds with n, ordered and sorted:
    # each class is one rep, whose gcd triple is the class, weighted by its size
    rows = np.array(list(itertools.product(range(n), repeat=3)))
    gcds = np.gcd(rows, n)
    for ordered in (True, False):
        keys = gcds if ordered else np.sort(gcds, axis=1)
        classes, sizes = np.unique(keys, axis=0, return_counts=True)
        o = oracle._divisor_rows(n, ordered)
        reps = np.gcd(np.stack(o.reps, axis=1), n)
        got = sorted(zip(map(tuple, reps.tolist()), o.sizes.tolist()))
        assert got == sorted(zip(map(tuple, classes.tolist()), sizes.tolist())), ordered


def _same_arrays(got, want):
    """Equal values, shapes and dtypes, array for array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def _same_orbits(got: oracle._RowOrbits, want: oracle._RowOrbits):
    _same_arrays([*got.reps, got.sizes, got.live], [*want.reps, want.sizes, want.live])


def test_prime_power_row_orbits_match_the_meshgrid_blocks():
    # the flat decode lists the same normal forms in the same order as one
    # meshgrid per (valuation, pivot) block, at every p^k <= INT64_CEILING
    for p, k in _prime_powers(oracle.INT64_CEILING):
        _same_arrays(oracle._prime_power_row_orbits(p, k), normal_forms_by_meshgrid(p, k))


@pytest.mark.parametrize("n", range(1, oracle.INT64_CEILING + 1, 16))
def test_row_and_divisor_orbits_match_the_earlier_builds(n):
    # sixteen moduli per test, n, n + 1, ..., n + 15: the same reps, sizes
    # and live flags, in the same order and types, as the CRT loop that
    # tests gcds and the itertools listing
    for m in range(n, min(n + 16, oracle.INT64_CEILING + 1)):
        _same_orbits(oracle._row_orbits(m), row_orbits_by_crt_loop(m))
        for ordered in (False, True):
            _same_orbits(oracle._divisor_rows(m, ordered), divisor_rows_by_itertools(m, ordered))


@pytest.mark.parametrize("n", range(1, oracle.INT64_CEILING + 1))
def test_bucket_tables_match_every_element(n):
    # the closed form n a phi(n) / phi(a / g) at gcd(x, a) = g, against a
    # listing of every element of <(a, 0), (g, 1)>, at every key (a, g), and
    # 0 at every other key: those with a dead part
    rows = oracle._bucket_rows(n)
    live = _closed_form_keys(n)
    a, g, keys = (np.array(v) for v in zip(*live))
    _same_arrays([rows[keys]], [subgroup_rows(n, a, g, np.ones_like(a))])
    dead = np.ones(len(rows), dtype=bool)
    dead[keys] = False
    assert len(set(keys.tolist())) == len(live) and not rows[dead].any()


def _exponent_rows(rows, n):
    """The rows that are (p^e1, p^e2, p^e3) mod every p^k || n, e_i the valuation at p of each entry of rows.

    rows is a (3, m) int64 array of residues mod n; a valuation is capped at
    k, as p^k is 0 mod p^k. The prime powers' parts are joined by the CRT.
    """
    out = np.zeros_like(rows)
    for p, k in factorize(n).factors:
        q = p**k
        e = sum(rows % p**t == 0 for t in range(1, k + 1))
        out += p**e % q * ((n // q) * pow(n // q, -1, q))
    return out % n


@pytest.mark.parametrize("n", [*range(1, 41), 60, 72, 105, 120, 127])
def test_orbit_pass_keys_are_the_gcd_keys_of_its_pairs(n):
    # the pass keys the pair (r1, r2) by the forms of (r1', r2), r1' the
    # exponent row of r1: r1 itself at a prime power. So each first-row
    # triple's weights over the second-row orbits fall on the keys of its own
    # pairs, in the same totals. Above 40, about 50 triples per ordering.
    for ordered in (False, True):
        c = oracle._orbit_tables(n, ordered)
        r1 = np.stack(c.first.reps).astype(np.int64)
        r1_exp = _exponent_rows(r1, n)
        r2 = np.stack(c.second.reps).astype(np.int64)
        step = 1 if n <= 40 else max(1, len(c.first.sizes) // 50)
        for i in range(0, len(c.first.sizes), step):
            for _, cols, key, w in oracle._orbit_blocks(c, i, i + 1):
                own = gcd_keys(n, forms(r1[:, [i], None], r2[:, None, cols], n))
                assert (key == gcd_keys(n, forms(r1_exp[:, [i], None], r2[:, None, cols], n))).all()
                if len(factorize(n).factors) < 2:
                    assert (key == own).all()
                tallies = (oracle._tally(v, w, len(c.buckets)) for v in (key, own))
                assert np.array_equal(*tallies), (ordered, i)


def test_key_table_build_is_blocked():
    # the class census at 64 keys 127 live exponent triples against 7,168
    # live local orbits; the build forms them _BLOCK pairs at a time, so its
    # peak is the table plus a few blocks, where one unblocked build's six
    # int16 coefficient arrays alone would take 11 MB
    first, second = oracle._divisor_rows(64, True), oracle._row_orbits(64)
    tracemalloc.start()
    try:
        (t,) = oracle._key_tables(64, first, second)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert t.codes.size == 127 * 7168
    assert peak < t.codes.nbytes + t.rows.nbytes + t.cols.nbytes + 16 * oracle._BLOCK * 8


def test_divisor_row_weights_cover_every_row():
    for n in range(1, oracle.INT64_CEILING + 1):
        for ordered in (True, False):
            assert int(oracle._divisor_rows(n, ordered).sizes.sum()) == n**3, (n, ordered)


@pytest.mark.parametrize("n", range(1, 33))
def test_row_orbits_are_the_unit_scaling_orbits(n):
    # each normal-form rep, scaled by every unit, fills an orbit of its stated
    # size; the reps' orbits are distinct and are exactly the reference's
    o = oracle._row_orbits(n)
    units = np.flatnonzero(oracle._unit_mask(n))[:, None]
    images = sum(units * r % n * n**c for c, r in enumerate(o.reps))
    images.sort(axis=0)
    assert ((np.diff(images, axis=0) != 0).sum(axis=0) + 1).tolist() == o.sizes.tolist()
    assert int(o.sizes.sum()) == n**3
    least, sizes = row_orbits_by_unit_minimum(n)
    assert len(o.sizes) == len(least)
    order = np.argsort(images[0])
    assert images[0][order].tolist() == least.tolist()
    assert o.sizes[order].tolist() == sizes.tolist()


@pytest.mark.parametrize("n", range(1, 17))
def test_orbit_pass_skips_exactly_the_dead_prefixes(n):
    # a row is dead when one prime p | n divides all three of its entries; the
    # pass walks each pair of live orbits once, and the weight it skips is the
    # number of prefixes with a dead row, by brute force over all n^6 of them
    rows = np.array(list(itertools.product(range(n), repeat=3)))
    dead = np.zeros(n**3, dtype=bool)
    for p, _ in factorize(n).factors:
        dead |= (rows % p == 0).all(axis=1)
    dead_prefixes = int(np.logical_or.outer(dead, dead).sum())
    for ordered in (False, True):
        c = oracle._orbit_tables(n, ordered)
        first, second = c.first, c.second
        pairs, walked = [], 0
        for i, j, *_, w in oracle._orbit_blocks(c, 0, len(first.sizes)):
            pairs += itertools.product(i.tolist(), j.tolist())
            walked += int(w.sum())
        live = np.outer(first.live, second.live)
        assert sorted(pairs) == list(zip(*(v.tolist() for v in np.nonzero(live))))
        weights = np.outer(first.sizes, second.sizes)
        assert int(weights[~live].sum()) == n**6 - walked == dead_prefixes, ordered
    seen = []
    oracle.census_tiered(n, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (n**6, n**6)


@pytest.mark.parametrize("n,chunk", [(120, None), (12, 1), (12, 100)])
def test_orbit_jobs_balance_live_pairs(monkeypatch, n, chunk):
    # every live first-row triple meets the same live second-row orbits, so
    # jobs of equal live-triple counts hold equal live-pair counts; the jobs
    # tile the triples in order, dead ones included, and none is left without
    # a live pair (at 120 the split by all triples left 13 of 55 jobs empty)
    if chunk is not None:
        monkeypatch.setattr(oracle, "_CHUNK", chunk)
    live_second = int(oracle._row_orbits(n).live.sum())
    step = max(1, oracle._CHUNK // live_second)
    for ordered in (False, True):
        c = oracle._orbit_tables(n, ordered)
        first, jobs = c.first, oracle._orbit_jobs(c)
        bounds = [args[1:3] for args, _ in jobs]
        assert [a for a, _ in bounds] == [0] + [b for _, b in bounds[:-1]]
        assert bounds[-1][1] == len(first.sizes)
        live = [int(first.live[a:b].sum()) for a, b in bounds]
        assert live[:-1] == [step] * (len(jobs) - 1) and 1 <= live[-1] <= step
        assert max(live) * live_second <= max(oracle._CHUNK, live_second)
        assert sum(size for _, size in jobs) == n**6


def test_tally_sums_weights_exactly():
    # 2^61 + 1 is not a float64, so a float accumulator would drop the 1
    key = np.array([[0, 1, 2], [2, 1, 0]])
    got = oracle._tally(key, np.array([[2**60 + 1, 10, 100], [1, 10, 2**60]]), 4)
    assert got.tolist() == [2**61 + 1, 20, 101, 0]


def _block_sensitive_results():
    counts, violations = oracle._class_scan(3, 2)
    return (
        oracle.census_tiered(12).counts,
        counts.tolist(),
        violations,
        oracle.case_census(7),
        oracle.census_naive(4).counts,
        oracle.census_naive(5).counts,
    )


def test_results_do_not_depend_on_block_budget(monkeypatch):
    # _BLOCK = 1 gives one first-row orbit per bucket block, one pair per
    # left-over block and one prefix per naive block
    default = _block_sensitive_results()
    monkeypatch.setattr(oracle, "_BLOCK", 1)
    assert _block_sensitive_results() == default


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_naive_job_matches_the_per_matrix_listing(n):
    # the job lists each prefix's first two entries once, tallied by z-column
    # key, and _naive_joint adds the third entry's term per key: folded, the
    # tally must be the per-matrix listing's, on the first, a middle and the
    # last chunk (one chunk below n = 6, ten at 6, 128 at 8)
    tables = oracle._naive_keys(n)
    jobs = oracle._range_jobs(n**6, n**3, n, tables)
    for args, _ in (jobs[0], jobs[len(jobs) // 2], jobs[-1]):
        tally = oracle._naive_job(args)
        assert tally.shape == (n * n * oracle._naive_width(n),)
        folded = oracle._naive_joint(n, tables[2], tally)
        assert np.array_equal(folded, naive_joint_by_matrix(args)), (n, args[2:])
        assert folded.sum() == (args[3] - args[2]) * n**3


def test_naive_job_memory_is_bounded_by_the_block_budget():
    # a job spans _CHUNK matrices, 2,048 prefixes at n = 8, and reads the
    # census's key tables. Its block of _BLOCK // 64 = 1,024 prefixes x 64
    # (x, y) pairs is 128 kB of int16 grouped indexes, bincount's int64 copy
    # of them 512 kB, and the bincount and the job's (64 x 323) tally 165 kB
    # each: tracemalloc puts its peak at 0.99 MB
    (args, size), *_ = oracle._range_jobs(8**6, 8**3, 8, oracle._naive_keys(8))
    assert size == oracle._CHUNK
    tracemalloc.start()
    try:
        oracle._naive_job(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4 * oracle._BLOCK * 8


def test_naive_keys_are_built_in_slices_of_the_block_budget():
    # at n = 8 the tables hold 1.31 MB: key12 and TT of 8^6 and 8^4 x 8^2
    # int16 entries, key3 of 8^6 int8 ones and T of 8^2 x 8. They are formed
    # from slices of 128 third rows against the 512 second rows, _BLOCK
    # entries each: forms' six int16 arrays, and with the temporaries of forms
    # and of the keys at most twelve such arrays at a time. tracemalloc puts
    # the peak at 2.63 MB
    tracemalloc.start()
    try:
        tables = oracle._naive_keys(8)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(t.nbytes for t in tables) == 2 * 8**6 * 2 + 8**6 + 8**3 * 2
    assert peak < sum(t.nbytes for t in tables) + 12 * oracle._BLOCK * 2


def test_naive_index_type_holds_the_largest_raw_index():
    # the sweep covers each matrix by its unreduced index perm' w + det',
    # w = 3n - 2, where perm' = (A x mod n) + (B y mod n) + (C z mod n) over
    # the prefix's forms and det' likewise with D, E, F. Each is at most
    # 3 (n - 1) = w - 1, so the index is at most w^2 - 1, which the type of
    # the term tables T and TT must hold, as the key types must hold the
    # largest keys, n^4 - 1 and n^2 - 1; n = 9 is swept in
    # test_bounds_are_enforced. On seeded prefixes T[key3] + TT[key12] must
    # give that index, as computed in Python ints. The job groups the first
    # two entries' terms under the z-column key as key3 W + TT[key12], W =
    # TT.max() + 1, so its index type must hold n^2 W - 1, and the third
    # entry's offsets T[key3, z] must carry the last of them to exactly
    # w^2 - 1.
    rng = np.random.default_rng(9)
    for n in range(1, 10):
        w, width = 3 * n - 2, oracle._naive_width(n)
        key12, key3, T, TT = oracle._naive_keys(n)
        assert np.iinfo(key12.dtype).max >= n**4 - 1 and np.iinfo(key3.dtype).max >= n**2 - 1, n
        assert T.dtype == TT.dtype and np.iinfo(T.dtype).max >= w * w - 1, n
        assert key12.shape == key3.shape == (n**6,) and T.shape == (n * n, n) and TT.shape == (n**4, n * n)
        assert width == TT.max() + 1 and T.max() + width - 1 == w * w - 1, n
        assert np.iinfo(oracle._int_type(n * n * width - 1)).max >= n * n * width - 1, n
        x = np.arange(n, dtype=np.int64)
        for r in rng.integers(0, n**6, size=8).tolist():
            digits = [r // n**i % n for i in range(6)]
            A, B, C, D, E, F = forms(digits[0:3], digits[3:6], n)
            perm = (A * x % n)[:, None, None] + (B * x % n)[None, :, None] + (C * x % n)[None, None, :]
            det = (D * x % n)[:, None, None] + (E * x % n)[None, :, None] + (F * x % n)[None, None, :]
            got = TT[key12[r]].reshape(n, n, 1).astype(np.int64) + T[key3[r]].reshape(1, 1, n)
            assert np.array_equal(got, perm * w + det), (n, r)
            assert got.max() <= w * w - 1
        # the job's last slot, grouped index n^2 W - 1, is the column key
        # (n - 1, n - 1) with its largest first-two-entries term. _naive_joint
        # adds it at each z's offset, and at z = 1 (the key's largest term,
        # n > 1) it lands on exactly w^2 - 1, the last slot of the joint tally
        tally = np.zeros(n * n * width, dtype=np.int64)
        tally[-1] = 1
        joint = oracle._naive_joint(n, T, tally)
        assert joint.shape == (w * w,) and joint.sum() == n, n
        assert np.flatnonzero(joint).max() == w * w - 1, n
        assert np.array_equal(np.flatnonzero(joint), np.unique(T[-1].astype(np.int64) + width - 1)), n


@functools.lru_cache(maxsize=None)
def tiered_counts(n):
    """census_tiered(n).counts, computed once for the tests below."""
    return oracle.census_tiered(n).counts


@pytest.mark.parametrize("n", [20, 25, 27, 28, 30, 32, 36, 48, 60, 64, 81])
def test_tiered_census_matches_closed_form(n):
    assert tiered_counts(n) == tuple(cf.count(n, x) for x in range(n))


@pytest.mark.parametrize("n", range(1, 33))
def test_census_is_invariant_under_units(n):
    # the two-value property's source: scaling row 1 by a unit u maps
    # permanent x to u x and keeps the determinant a unit
    counts = tiered_counts(n)
    for u in range(1, n + 1):
        if math.gcd(u, n) == 1:
            assert all(counts[x] == counts[u * x % n] for x in range(n)), u


@pytest.mark.parametrize(
    "n,want",
    [
        (7, np.int8),
        (8, np.int16),
        (105, np.int16),
        (106, np.int32),
        (26755, np.int32),
        (26756, np.int64),
    ],
)
def test_int_type_holds_the_kernel_bound(n, want):
    # perm_det, perm_det_subperms and forms on residues mod n stay within 3 (n - 1)^2
    assert oracle._int_type(3 * (n - 1) ** 2) is oracle._kernel_type(n) is want


@pytest.mark.parametrize("n", [7, 8, 105, 106, 127])
def test_tables_are_built_in_the_kernel_type(n):
    # the int8 edge (7, 8), the int16 edge (105, 106) and the int32 range
    # (127): the row builders hold their residues in _kernel_type(n), so the
    # class census forms its coefficients in that type with no cast. The key
    # tables form theirs mod each p^k || n in _kernel_type(p^k), and hold
    # the keys in the narrowest type of the key count, their offsets in that
    # of the table size
    t = oracle._kernel_type(n)
    assert all(v.dtype == t for v in oracle._row_orbits(n).reps)
    key_type = oracle._int_type(len(oracle._bucket_rows(n)) - 1)
    for ordered in (False, True):
        c = oracle._orbit_tables(n, ordered)
        assert all(v.dtype == t for v in c.first.reps)
        _, _, key, _ = next(oracle._orbit_blocks(c, 0, len(c.first.sizes)))
        assert key.dtype == key_type
        for table in c.keys:
            assert table.codes.dtype == key_type
            assert table.rows.dtype == table.cols.dtype == oracle._int_type(table.codes.size - 1)
    # _kernel_type(p^k) holds the largest minors: A E - B D = A F - C D =
    # (p^k - 1)^2 and B F - C E = -(p^k - 1)^2
    for p, k in factorize(n).factors:
        q = p**k
        top = [np.full(1, v, dtype=oracle._kernel_type(q)) for v in (q - 1, 0, q - 1, 0, q - 1, q - 1)]
        assert oracle._local_keys(top, p, k, oracle._valuations(p, k)) == gcd_keys(q, top)
    inverse = oracle._inverse_table(n)
    assert inverse.dtype == t
    unit = oracle._unit_mask(n)
    assert (np.arange(n) * inverse.astype(np.int64) % n == unit).all()
    assert all(v.dtype == t for v in oracle._digits(range(n**2), n, 2))
    if n > 100:
        assert oracle.census_tiered(n).counts == tuple(cf.count(n, x) for x in range(n))


@pytest.mark.parametrize(
    "start,stop,n,k",
    [
        (0, 127, 2, 7),  # int8 up to its top
        (100, 128, 3, 5),  # past int8's top: int16
        (32_700, 32_767, 7, 6),  # int16 up to its top
        (32_700, 32_800, 7, 6),  # past int16's top: int32
        (9 * 26_214, 10 * 26_214, 9, 6),  # a block of the (3, 2) shift population
        (2**31 - 300, 2**31 - 1, 5, 14),  # int32 up to its top
        (2**31 - 100, 2**31 + 100, 127, 5),  # past int32's top: int64
        (0, 1, 1, 3),
        (0, 125, 126, 2),  # n above stop: the kernel type sets the dtype
    ],
)
def test_digits_match_divmod(start, stop, n, k):
    # each digit is the index less n times its floor quotient; np.divmod on
    # the same arange is the reference, digit for digit and dtype for dtype
    idx = np.arange(start, stop, dtype=np.promote_types(oracle._int_type(stop), oracle._kernel_type(n)))
    want = []
    for _ in range(k):
        idx, digit = np.divmod(idx, n)
        want.append(digit)
    got = oracle._digits(range(start, stop), n, k)
    assert len(got) == k
    assert all(a.dtype == b.dtype and np.array_equal(a, b) for a, b in zip(got, want))


def test_int_type_refuses_past_int64():
    assert oracle._int_type(2**63 - 1) is np.int64
    with pytest.raises(OverflowError):
        oracle._int_type(2**63)


def test_int_type_matches_iinfo_at_each_edge():
    # _int_type reads the type off the bound's bit length; np.iinfo is the reference
    types = (np.int8, np.int16, np.int32, np.int64)
    for narrow, wide in zip(types, types[1:]):
        top = int(np.iinfo(narrow).max)
        assert oracle._int_type(top) is narrow, narrow
        assert oracle._int_type(top + 1) is wide, narrow
    assert oracle._int_type(0) is np.int8
    assert oracle._int_type(int(np.iinfo(np.int64).max)) is np.int64
    with pytest.raises(OverflowError):
        oracle._int_type(int(np.iinfo(np.int64).max) + 1)


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (2, 5), (3, 3), (7, 2)])
def test_class_census_matches_closed_forms(p, k):
    n = p**k
    cc = oracle.class_census(p, k)
    assert cc.marginal().counts == tuple(cf.count(n, x) for x in range(n))
    if p != 2:
        for label in CLASS_LABELS:
            assert cc.count(0, label) == cf.class_count_prime_power_zero(p, k, label), label


@pytest.mark.parametrize("p", [17, 19])
def test_case_census_matches_case_rows(p):
    assert oracle.case_census(p).rows == cf.case_rows(p)


class Dispatched(Exception):
    """Raised by a patched oracle._sum_jobs: the engine passed its bounds and dispatched jobs."""


def _dispatched(*args):
    raise Dispatched


def test_size_rules_follow_from_their_arithmetic(monkeypatch):
    # the int64 tallies reach n^9
    assert oracle.INT64_CEILING**9 < 2**63 <= (oracle.INT64_CEILING + 1) ** 9
    # the scan budget admits each brute-force scan at its bound; the shift
    # population starts by listing its members
    monkeypatch.setattr(oracle, "_sum_jobs", _dispatched)
    monkeypatch.setattr(sm, "zero_perm_members", _dispatched)
    calls = [
        lambda: oracle.census_naive(8),
        lambda: oracle.census_2x2(107),
        *(lambda p=p: sm.fiber_count(sm.witness(ClassLabel.C12, p), p, 2) for p in (3, 5, 7)),
        lambda: verify.shift_round_trip(3, 2),
        lambda: verify.shift_round_trip(7, 1),
    ]
    for call in calls:
        with pytest.raises(Dispatched):
            call()
    # no invertible matrix mod 2 has permanent 0, so a fiber at 2^4 passes the
    # budget and is refused only by fiber_count's own check
    with pytest.raises(ValueError, match="permanent 0"):
        sm.fiber_count(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 2), 2, 4)


def test_every_engine_refuses_one_past_its_bound(monkeypatch):
    # 127^9 < 2^63 <= 128^9 for the orbit engines and the sampled shift check,
    # n^9, n^4, p^(9(k - 1)) and n^8 matrices within 2^27 for the scans:
    # refused before any job is dispatched, any member listed or any matrix sampled
    monkeypatch.setattr(oracle, "_sum_jobs", lambda *args: pytest.fail("enumeration started"))
    monkeypatch.setattr(sm, "zero_perm_members", lambda *args: pytest.fail("enumeration started"))
    a = sm.witness(ClassLabel.C12, 3)
    calls = [
        ("n <= 127", lambda: oracle.census_tiered(128)),
        ("n <= 127", lambda: oracle._class_scan(2, 7)),
        ("n <= 127", lambda: oracle.class_census(2, 7)),
        ("n <= 127", lambda: sm.emptiness_scan(2, 7)),
        ("n <= 127", lambda: oracle.case_census(131)),
        ("n <= 8", lambda: oracle.census_naive(9)),
        ("n <= 107", lambda: oracle.census_2x2(108)),
        ("p <= 2", lambda: sm.fiber_count(a, 3, 3)),
        ("p <= 3", lambda: verify.shift_round_trip(5, 2)),
        ("n <= 10", lambda: verify.shift_round_trip(11, 1)),
        ("n <= 10", lambda: verify.shift_round_trip(13, 1)),
        ("n <= 127", lambda: verify.shift_round_trip(131, 1, population=False)),
    ]
    for bound, call in calls:
        with pytest.raises(oracle.CensusTooLarge, match=bound):
            call()


def test_bounds_are_checked_before_factorizing(monkeypatch):
    # 2^61 - 1 is prime: trial division would run for minutes
    def fail(*args):
        pytest.fail("factorized before the bound check")

    for module in (oracle, sm, verify):
        monkeypatch.setattr(module, "factorize", fail)
        monkeypatch.setattr(module, "is_prime", fail)
    big = 2**61 - 1
    calls = [
        lambda: oracle.census_tiered(big),
        lambda: oracle.census_naive(big),
        lambda: oracle.census_2x2(big),
        lambda: oracle.class_census(big),
        lambda: oracle.class_census(2, 10**18),
        lambda: oracle.case_census(big),
        lambda: sm.emptiness_scan(big),
        lambda: verify.shift_round_trip(big, 1),
        lambda: verify.shift_round_trip(big, 1, population=False),
    ]
    for call in calls:
        with pytest.raises(oracle.CensusTooLarge):
            call()


def test_single_job_runs_inline():
    assert oracle._sum_jobs(lambda args: sum(args), [((1, 2), 5)], 4, None) == 3
    # the job runs on the calling thread, not on a pool's
    here = threading.get_ident()
    assert oracle._sum_jobs(lambda args: threading.get_ident(), [((), 1)], 4, None) == here


@pytest.mark.parametrize("threads", [1, 2])
def test_raising_progress_cancels_queued_jobs(threads):
    started, finished = [], []

    def job(args):
        started.append(args)
        time.sleep(0.1)
        finished.append(args)
        return 1

    def progress(done, total):
        if done == 3:
            raise KeyboardInterrupt

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        oracle._sum_jobs(job, [(i, 1) for i in range(20)], threads, progress)
    # the 3 reported jobs, at most one running per thread, and one a thread
    # may have taken up before the queue was cancelled; every one of them ran
    # to its end before the map returned
    assert 3 <= len(started) <= 3 + 2 * threads
    assert sorted(finished) == sorted(started)
    assert threading.active_count() == before


class JobFailed(Exception):
    pass


@pytest.mark.parametrize("error", [JobFailed, MemoryError])
def test_job_exception_reaches_the_caller_unwrapped(error):
    raised = error("job 5")

    def job(i):
        if i == 5:
            raise raised
        return i

    with pytest.raises(error) as info:
        oracle._sum_jobs(job, [(i, 1) for i in range(10)], 3, None)
    assert info.value is raised


@pytest.mark.parametrize("threads", [1, 2])
def test_job_lists_are_concatenated_in_job_order(threads):
    def job(i):
        time.sleep(0.01 * (i % 2))  # odd jobs finish after the even job behind them
        return [i, i]

    got = oracle._sum_jobs(job, [(i, 1) for i in range(6)], threads, None)
    assert got == [0, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]


def test_no_later_job_starts_once_a_job_has_raised():
    # job 0 holds one thread while job 1 raises on the other; that thread
    # then takes up jobs 2 and 3 but must not run them
    started, raised = [], JobFailed("job 1")

    def job(i):
        started.append(i)
        if i == 1:
            raise raised
        time.sleep(0.2 if i == 0 else 0)
        return i

    with pytest.raises(JobFailed) as info:
        oracle._sum_jobs(job, [(i, 1) for i in range(4)], 2, None)
    assert info.value is raised
    assert sorted(started) == [0, 1]


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        oracle._sum_jobs(sum, [((1, 2), 5)], threads, None)
    with pytest.raises(ValueError, match="threads must be >= 1"):
        oracle.census_naive(2, threads=threads)


def test_parallel_censuses_are_deterministic():
    for threads in (1, 2, 3):
        assert oracle.census_tiered(7, threads=threads).counts == CENSUS3[7]
        assert oracle.census_naive(4, threads=threads).counts == CENSUS3[4]
    one = oracle.class_census(5, 1, threads=1)
    two = oracle.class_census(5, 1, threads=2)
    assert one.counts == two.counts


@pytest.mark.parametrize("threads", [1, 3])
def test_orbit_jobs_read_only_their_arguments(monkeypatch, threads):
    # every table builder raises once _orbit_jobs has returned, so a job that
    # built or looked up a table of its own would fail its census; _CHUNK = 1
    # gives one live first-row triple per job, so the merge adds many, and
    # the counts must equal those of the default chunks
    runs = (
        lambda: oracle.census_tiered(12, threads=threads).counts,
        lambda: oracle.class_census(3, 2, threads=threads).counts,
        lambda: oracle.case_census(7, threads=threads),
    )
    want, jobs, real_orbit_jobs = [run() for run in runs], [], oracle._orbit_jobs

    def guarded(build):
        def builder(*args):
            if jobs:
                pytest.fail(f"{build.__name__}{args} called after the jobs were dispatched")
            return build(*args)

        return builder

    def orbit_jobs(*args):
        jobs.append(real_orbit_jobs(*args))
        return jobs[-1]

    for name in ("_row_orbits", "_prime_power_row_orbits", "_divisor_rows", "_key_tables",
                 "_local_keys", "_bucket_rows", "_unit_mask", "_valuations"):
        monkeypatch.setattr(oracle, name, guarded(getattr(oracle, name)))
    monkeypatch.setattr(oracle, "_orbit_jobs", orbit_jobs)
    monkeypatch.setattr(oracle, "_CHUNK", 1)
    for run, counts in zip(runs, want):
        jobs.clear()
        assert run() == counts
        (c, *_), _ = jobs[0][0]
        assert len(jobs) == 1 and len(jobs[0]) == c.first.live.sum() >= 3


def test_censuses_at_one_modulus_share_one_build(monkeypatch, cold_tables):
    # the tiered, class and case censuses at 13 in a row: one build of the
    # second-row orbits and the bucket rows serves all three, and one of the
    # first-row triples and key tables serves each ordering: the sorted one
    # the tiered and case censuses, the ordered one the class census
    calls = collections.Counter()

    def counted(build):
        def builder(*args):
            calls[build.__name__] += 1
            return build(*args)

        return builder

    for name in ("_row_orbits", "_bucket_rows", "_divisor_rows", "_key_tables"):
        monkeypatch.setattr(oracle, name, counted(getattr(oracle, name)))
    oracle.census_tiered(13)
    oracle.class_census(13)
    oracle.case_census(13)
    assert calls == {"_row_orbits": 1, "_bucket_rows": 1, "_divisor_rows": 2, "_key_tables": 2}


def test_a_census_at_another_modulus_releases_the_last_tables():
    oracle.census_tiered(12)
    c = oracle._orbit_tables(12, False)
    tables = [weakref.ref(v) for v in (c.first, c.second, c.buckets, *c.keys)]
    del c
    oracle.census_tiered(13)
    gc.collect()
    assert all(t() is None for t in tables)


def test_progress_hook_reports_completion():
    seen = []
    oracle.census_tiered(9, progress=lambda done, total: seen.append((done, total)))
    assert seen, "progress hook never called"
    assert seen[-1][0] == seen[-1][1] == 9**6
    assert all(a <= b for a, b in seen)
    assert [a for a, _ in seen] == sorted(a for a, _ in seen)
