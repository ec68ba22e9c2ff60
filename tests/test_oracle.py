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
from gl3census.matrices import CLASS_LABELS, ClassLabel, forms, mat3, mod, perm_det2, perm_det_subperms
from gl3census.modring import factorize, is_prime
from support import (
    CASE_ROWS,
    CENSUS2,
    CENSUS3,
    CLASS_TABLE,
    bucket_rows,
    divisor_rows_by_itertools,
    gcd_keys,
    hnf_by_euclid,
    naive_joint_by_matrix,
    normal_forms_by_meshgrid,
    object_census3,
    prefix_tally_by_gcd_keys,
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


def _row_two_subperms(e, n):
    """(perm, det, P11, P12, P13, P21, P22, P23) mod n of the row-major entries e."""
    return (*perm_det_subperms(e, n), mod(e[0] * e[7] + e[1] * e[6], n))


def test_column_orderings_reorder_row_two_subpermanents():
    # moving column s_j to position j turns P2j into P2,s_j
    m = np.random.default_rng(7).integers(0, 25, size=(3, 3, 500))
    subs = _row_two_subperms(list(m.reshape(9, -1)), 25)[5:]
    for s in itertools.permutations(range(3)):
        moved = _row_two_subperms(list(m[:, list(s)].reshape(9, -1)), 25)[5:]
        assert all(np.array_equal(moved[j], subs[c]) for j, c in enumerate(s)), s


def test_ordering_tables_count_the_six_column_orderings():
    # per unit pattern of three entries, the position of each ordering's
    # first unit (3 for none) counted over the six: it depends on the number
    # u of units alone; a left-over label past the first two is a violation
    orders = list(itertools.permutations(range(3)))
    for bits in range(8):
        first = [next((i for i, c in enumerate(s) if bits >> c & 1), 3) for s in orders]
        u = bin(bits).count("1")
        head, left = oracle._HEAD_ORDERINGS[u].tolist(), oracle._LEFTOVER_ORDERINGS[u].tolist()
        assert head == [first.count(i) for i in range(3)] and left == [*head[:2], 6 - sum(head[:2])], bits


def _prime_powers(bound):
    return [(p, k) for p in range(2, bound + 1) if is_prime(p) for k in range(1, 8) if p**k <= bound]


def _leftover_sweep(rep1, rep3, p, n):
    """C21, C22 and violation tallies, over the six column orderings, of a pair's prefixes (row 1, row 3).

    Those prefixes are, for each row r3 = rep3 D in rep3's orbit under unit
    column scaling (one unit diagonal D per row), the rows u rep1 D for units
    u; each is swept against all n^3 second rows, once, and the matrices with
    P11, P12, P13 = 0 mod p and a unit determinant are kept. Ordering s
    (column s_j moved to position j) labels a matrix M S by P2,s_1 and P2,s_2
    of M, so the sum is that of the sweeps of the pairs (rep1 s, rep3 s).
    Returns the tallies and the number of prefixes.
    """
    units = np.array([u for u in range(1, n) if math.gcd(u, n) == 1])
    diag = np.array(list(itertools.product(units, repeat=3)))
    rows3, first_d = np.unique(diag * rep3 % n, axis=0, return_index=True)
    prefixes = np.unique(
        [[*(u * rep1 * d % n), *r3] for r3, d in zip(rows3, diag[first_d]) for u in units], axis=0
    ).astype(oracle._kernel_type(n))
    second = [(np.arange(n**3) // n**t % n).astype(prefixes.dtype)[None, :] for t in range(3)]
    counts = np.zeros(8 * n, dtype=np.int64)  # by (unit pattern of P21, P22, P23, permanent)
    step = max(1, (1 << 18) // n**3)
    for s in range(0, len(prefixes), step):
        block = prefixes[s : s + step]
        e = [*(block[:, [c]] for c in range(3)), *second, *(block[:, [c]] for c in range(3, 6))]
        perm, det, p11, p12, p13, *subs = _row_two_subperms(e, n)
        keep = (mod(det, p) != 0) & (mod(p11, p) == 0) & (mod(p12, p) == 0) & (mod(p13, p) == 0)
        bits = sum((mod(v, p) != 0) << c for c, v in enumerate(subs))
        counts += np.bincount(np.broadcast_to(bits * n + perm, keep.shape)[keep], minlength=8 * n)
    out = np.zeros((3, n), dtype=np.int64)
    for bits, row in enumerate(counts.reshape(8, n)):
        for s in itertools.permutations(range(3)):
            out[0 if bits >> s[0] & 1 else 1 if bits >> s[1] & 1 else 2] += row
    return out, len(prefixes)


def _pair_leftover(p, k, i, j):
    """The class pass's C21, C22 and violation counts, by permanent, of live triple i with the orbits j alone.

    j is an orbit's index, or an array of them: their pairs with i are summed.
    """
    first, _ = oracle._prime_power_weights(p, k)
    reps, sizes = oracle._prime_power_row_orbits(p, k)
    weights = np.where(np.arange(len(first)) == i, first, 0)
    alone = np.where(np.isin(np.arange(len(sizes)), j), sizes, 0)
    six_fold = oracle._LEFTOVER_ORDERINGS.T @ oracle._leftover_weights(p, k, weights, reps, alone)
    left, rest = np.divmod(six_fold @ oracle._bucket_rows(p, k), p * p)
    assert not rest.any()
    return left


@pytest.mark.parametrize("p,k,pairs", [(3, 2, None), (5, 2, 2), (3, 3, 2)])
def test_leftover_tally_matches_member_sweep(p, k, pairs):
    # the pair (first-row triple f, second-row orbit r), read as row 3 = f and
    # row 1 = r, against a sweep of every second row with no lattice and no
    # key. A pair has left-over matrices exactly when its rep prefix has them
    # mod p: the others must count none. At p = 2 there are none, and at k =
    # 1 their permanents are all 0, so these pin the lattice of second rows,
    # the p^2 division, the invariance under unit column scaling and the count
    # of labels over the column orderings. f runs over the live sorted
    # divisor triples, the rows (p^e1, p^e2, p^e3) of the live exponent
    # triples the class pass reads, each of weight m times its unit
    # column-scaling orbit's size, m its number of distinct orderings, as
    # _prime_power_weights gives them. At (5, 2) and (3, 3) the lightest
    # pairs come first, and they reach permanents of every valuation 1..k.
    n = p**k
    first_sizes, _ = oracle._prime_power_weights(p, k)
    f = p ** oracle._live_triples(k) % n
    reps, sizes = oracle._prime_power_row_orbits(p, k)
    val = oracle._valuations(p, k)
    i, j = np.indices((f.shape[1], len(sizes))).reshape(2, -1)
    live = np.flatnonzero((reps[:, j] % p).any(axis=0))
    weights = first_sizes[i] * sizes[j]
    has_left = np.array([_leftover_sweep(reps[:, j[x]] % p, f[:, i[x]] % p, p, p)[0].any() for x in live])
    # counts are never negative, so a triple's pairs with none sum to none
    for t in range(f.shape[1]):
        none = live[~has_left & (i[live] == t)]
        assert not _pair_leftover(p, k, t, j[none]).any(), t
    left = live[has_left]
    left = left[np.argsort(weights[left], kind="stable")]
    reached = set()
    for pair in left[:pairs]:
        tally = _pair_leftover(p, k, i[pair], j[pair])
        rep3, rep1 = f[:, i[pair]], reps[:, j[pair]]
        orderings = len(set(itertools.permutations(rep3.tolist())))
        sweep, members = _leftover_sweep(rep1, rep3, p, n)
        assert members * orderings == weights[pair]
        assert tally.tolist() == (orderings * sweep).tolist(), (rep3, rep1)
        reached |= set(val[np.flatnonzero(tally.sum(axis=0))].tolist())
    assert reached == set(range(1, k + 1))


def _lattice(units, p):
    """L of the class census's row-2 lattice for a row-3 triple with units units mod p.

    Its columns are (lead, s, 0), p e2 and p e3: lead is 1 at one or two
    units and p at three, s is -1 at two and 0 otherwise.
    """
    return np.array([[1 if units < 3 else p, 0, 0], [-(units == 2), p, 0], [0, 0, p]])


@pytest.mark.parametrize("p,k", _prime_powers(27))
def test_row_two_lattice_is_the_rows_that_keep_p1j_divisible(p, k):
    # every live sorted triple f as row 3: with one or two units mod p, L t
    # over all n^3 rows t hits every row x with S(f) x = (P11, P12, P13) = 0
    # mod p exactly p^2 times, and no other row; with three at odd p those
    # rows are p (Z/n)^3, which L = p I reaches. At p = 2, see the next test.
    n = p**k
    g = p ** oracle._sorted_triples(k + 1)
    x = np.indices((n,) * 3).reshape(3, -1)  # every row, in C order
    for f in (g % n).T[np.gcd.reduce(g, axis=0) == 1]:
        S = np.array([[0, f[2], f[1]], [f[2], 0, f[0]], [f[1], f[0], 0]])
        kept = (S @ x % p == 0).all(axis=0)
        units = int((f % p != 0).sum())
        hits = np.bincount(np.ravel_multi_index(tuple(_lattice(units, p) @ x % n), (n,) * 3), minlength=n**3)
        if units < 3:
            assert hits.tolist() == (p * p * kept).tolist(), (n, f)
        elif p > 2:
            assert (hits > 0).tolist() == kept.tolist() == (x % p == 0).all(axis=0).tolist(), (n, f)


def test_no_leftover_matrix_is_invertible_mod_2():
    # mod 2 each cofactor is its sub-permanent, so a matrix with P11, P12,
    # P13 even has an even determinant; this covers the three-unit triple at
    # p = 2, whose row-2 lattice is larger than 2 (Z/n)^3, and every 2^k
    e = list(np.indices((2,) * 9).reshape(9, -1))
    _, det, *subs = perm_det_subperms(e, 2)
    cofactors = forms(e[3:6], e[6:9], 2)[3:]
    assert all(np.array_equal(a, b) for a, b in zip(cofactors, subs[:3]))
    assert not (det[(subs[0] == 0) & (subs[1] == 0) & (subs[2] == 0)] % 2).any()


@pytest.mark.parametrize("p,k", [(127, 1), (5, 3)])
def test_six_fold_class_tallies_stay_in_int64(p, k):
    # the class tallies are prefix weights, each half's counted once per column
    # ordering: at most 6 n^6 until _class_scan divides them by 6. The
    # left-over contraction counts rows t, each matrix p^2 times: at most n^9
    # before the division by p^2, and 127^9 < 2^63
    n = p**k
    heads, left = np.split(oracle._class_tallies(p, k), 2)
    assert 0 < heads.sum() <= 6 * n**6 and 0 < left.sum() <= 6 * n**6
    rows_t = (left // 6) @ oracle._bucket_rows(p, k)
    assert 0 < rows_t.sum() <= n**9 and oracle.INT64_CEILING**9 < 2**63
    counts, violations = oracle._class_scan(p, k)
    assert rows_t.tolist() == [*(p * p * counts[:, 3:]).T.tolist(), [0] * n] and violations == 0


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
    """The caches of tables and bucket rows cleared before and after: nothing built under a patch outlives the test."""
    for cache in (oracle._prime_power_table, oracle._bucket_rows):
        cache.cache_clear()
    yield
    for cache in (oracle._prime_power_table, oracle._bucket_rows):
        cache.cache_clear()


@pytest.mark.parametrize("live", ["zero row too", "one orbit short"])
def test_case_census_guards_its_live_weight(monkeypatch, live):
    # the zero second row moved to a live key puts weight on pattern 7 where
    # the bucket counts are not all 0; a live orbit moved onto the zero row
    # leaves the live prefixes short of p^6 - (2 p^3 - 1). Either keeps every
    # table row's sum, so the case census's own check must catch it
    table = oracle._prime_power_table(5, 1).copy()
    if live == "zero row too":
        table[0, 0, 0, -1] -= 1
        table[0, 0, 0, 0] += 1
    else:
        u, z, key = np.argwhere(table[0, :, 1:] >= 4)[0]
        table[0, u, z + 1, key] -= 4  # a live orbit mod 5 has 4 rows
        table[0, 0, 0, -1] += 4
    assert (table.sum(axis=(1, 2, 3)) == 5**3).all()
    monkeypatch.setattr(oracle, "_prime_power_table", lambda p, k: table)
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
    rows = bucket_rows(n)
    for a, g, key in _closed_form_keys(n):
        assert rows[key].tolist() == third_row_counts_generic(_signature(a % n, g % n), n).tolist(), (a, g)


def test_generic_counts_random_signatures():
    rng = np.random.default_rng(7)
    for n in (4, 6, 9, 12):
        rows = bucket_rows(n)
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
    rows = bucket_rows(n)
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
    rows = bucket_rows(n)
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
    # at each p^k || n, group all q^3 rows by their sorted triple of gcds
    # with q: each class is the row (p^e1, p^e2, p^e3) of one sorted exponent
    # triple, weighted by its size
    for p, k in factorize(n).factors:
        q = p**k
        rows = np.array(list(itertools.product(range(q), repeat=3)))
        classes, sizes = np.unique(np.sort(np.gcd(rows, q), axis=1), axis=0, return_counts=True)
        got = zip(map(tuple, (p ** oracle._sorted_triples(k + 1)).T.tolist()), oracle._divisor_rows(p, k).tolist())
        assert sorted(got) == sorted(zip(map(tuple, classes.tolist()), sizes.tolist())), q


def _same_arrays(got, want):
    """Equal values, shapes and dtypes, array for array."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape and np.array_equal(g, w)


def test_prime_power_row_orbits_match_the_meshgrid_blocks():
    # the flat decode lists the same normal forms in the same order as one
    # meshgrid per (valuation, pivot) block, at every p^k <= INT64_CEILING
    for p, k in _prime_powers(oracle.INT64_CEILING):
        _same_arrays(oracle._prime_power_row_orbits(p, k), normal_forms_by_meshgrid(p, k))


@pytest.mark.parametrize("n", range(1, oracle.INT64_CEILING + 1, 16))
def test_row_and_divisor_orbits_match_the_earlier_builds(n):
    # the prime powers among n, n + 1, ..., n + 15: the same first-row
    # triples, as the rows of the sorted exponent triples, and sizes, in the
    # same order and types, as the itertools listing. The second-row orbits
    # are pinned to the meshgrid blocks above
    for p, k in _prime_powers(oracle.INT64_CEILING):
        if n <= p**k < n + 16:
            got = (p ** oracle._sorted_triples(k + 1), oracle._divisor_rows(p, k))
            _same_arrays(got, divisor_rows_by_itertools(p**k))


@pytest.mark.parametrize("n", range(1, oracle.INT64_CEILING + 1))
def test_bucket_tables_match_every_element(n):
    # the closed form n a phi(n) / phi(a / g) at gcd(x, a) = g, against a
    # listing of every element of <(a, 0), (g, 1)>, at every key (a, g), and
    # 0 at every other key: those with a dead part
    rows = bucket_rows(n)
    live = _closed_form_keys(n)
    a, g, keys = (np.array(v) for v in zip(*live))
    _same_arrays([rows[keys]], [subgroup_rows(n, a, g, np.ones_like(a))])
    dead = np.ones(len(rows), dtype=bool)
    dead[keys] = False
    assert len(set(keys.tolist())) == len(live) and not rows[dead].any()


@pytest.mark.parametrize("n", [*range(1, 41), 60, 72, 105, 120, 127])
def test_orbit_pass_keys_are_the_gcd_keys_of_its_pairs(n):
    # at each p^k || n the table holds, per live exponent triple e, the sizes
    # of all unit-scaling orbits mod p^k, dead ones included, by the units mod
    # p among A, B, C, the nonzero entries of the rep and the gcd key of the
    # pair's own forms, each pair formed here with no block and no shortcut
    for p, k in factorize(n).factors:
        q, n_keys = p**k, (k + 1) ** 2 + 1
        reps, sizes = oracle._prime_power_row_orbits(p, k)
        r1 = p ** oracle._live_triples(k).astype(np.int64) % q
        f = forms(r1[:, :, None], reps[:, None, :], q)
        units = sum(v % p != 0 for v in f[:3])
        cells = (units * 4 + (reps != 0).sum(axis=0)) * n_keys + gcd_keys(q, f)
        want = np.zeros((r1.shape[1], 16 * n_keys), dtype=np.int64)
        np.add.at(want, (np.arange(r1.shape[1])[:, None], cells), np.broadcast_to(sizes, cells.shape))
        assert np.array_equal(oracle._prime_power_table(p, k).reshape(len(want), -1), want), (p, k)


@pytest.mark.parametrize("n", [*range(1, 25), 30])
def test_prefix_tally_matches_the_gcd_key_reference(n):
    # the census, the product of its censuses at each p^k || n, against
    # every sorted divisor triple of n keyed with all n^3 second rows by
    # gcd_keys, one key mod n each, times each key's row mod n: no orbits, no
    # Chinese remainder theorem and no per-prime-power table. With
    # census_naive at 6, this is what confirms the product rule at composite n
    want = prefix_tally_by_gcd_keys(n) @ bucket_rows(n)
    assert oracle.census_tiered(n).counts == tuple(want.tolist())


def test_key_table_build_is_blocked():
    # the table at 64 keys 28 live exponent triples against 7,168 live local
    # orbits; the build forms them in blocks of at most _BLOCK pairs (9
    # triples, 64,512 pairs), so its peak is the orbits, the table and a few
    # blocks: tracemalloc puts it at 2.8 MB, 2.6 MB above the 0.18 MB table,
    # where one unblocked build's reaches 6.5 MB
    tracemalloc.start()
    try:
        table = oracle._prime_power_table.__wrapped__(2, 6)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (28, 4, 4, 50) and table.sum() == 28 * 64**3
    assert peak < table.nbytes + 6 * oracle._BLOCK * 8


def test_tiered_census_at_a_composite_n_holds_a_few_vectors_of_n():
    # census_tiered(n) multiplies its censuses at each p^k || n, each tiled
    # to length n. With the tables and bucket rows of 120 = 2^3 3 5 cached by
    # the censuses at 8, 3 and 5, a census at 120 holds a few int64 vectors
    # of 120 entries and the table it returns: tracemalloc puts its peak at
    # 5.4 kB, below 16 such vectors (15.4 kB). The 816 sorted divisor triples
    # of 120 and their sizes (26 kB) would pass it on their own, as did the
    # joint first-row weight tensor over 8, 3 and 5 with its contraction
    # (85-134 kB, whether or not the triples' listing was cached)
    for n in (8, 3, 5):
        oracle.census_tiered(n)
    tracemalloc.start()
    try:
        table = oracle.census_tiered(120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.counts == tuple(cf.count(120, x) for x in range(120))
    assert peak < 16 * 120 * 8


def test_divisor_row_weights_cover_every_row():
    # at every p^k <= INT64_CEILING the first-row triples weigh q^3, and the
    # live weights the censuses read are the itertools listing's first ones
    for p, k in _prime_powers(oracle.INT64_CEILING):
        _, sizes = divisor_rows_by_itertools(p**k)
        assert int(oracle._divisor_rows(p, k).sum()) == int(sizes.sum()) == p ** (3 * k), (p, k)
        first, _ = oracle._prime_power_weights(p, k)
        assert first.tolist() == sizes[: oracle._live_triples(k).shape[1]].tolist(), (p, k)


@pytest.mark.parametrize("n", range(1, 33))
def test_row_orbits_are_the_unit_scaling_orbits(n):
    # at each p^k || n, each normal-form rep, scaled by every unit, fills an
    # orbit of its stated size; the reps' orbits are distinct and are exactly
    # the reference's
    for p, k in factorize(n).factors:
        q = p**k
        reps, own = oracle._prime_power_row_orbits(p, k)
        units = np.flatnonzero(oracle._unit_mask(q))[:, None]
        images = sum(units * r % q * q**c for c, r in enumerate(reps))
        images.sort(axis=0)
        assert ((np.diff(images, axis=0) != 0).sum(axis=0) + 1).tolist() == own.tolist()
        assert int(own.sum()) == q**3
        least, sizes = row_orbits_by_unit_minimum(q)
        assert len(own) == len(least)
        order = np.argsort(images[0])
        assert images[0][order].tolist() == least.tolist()
        assert own[order].tolist() == sizes.tolist()


@pytest.mark.parametrize("n", range(1, 17))
def test_orbit_pass_skips_exactly_the_dead_prefixes(n):
    # a row is dead at p when p divides all three of its entries. At each
    # p^k || n the table build forms each pair of a live exponent triple and
    # a live orbit once, and the weight it leaves to the dead rows, the live
    # triples' first-row weights included, is the number of prefixes mod p^k
    # with a row dead at p, by brute force over all q^6 of them
    for p, k in factorize(n).factors:
        q, n_live = p**k, oracle._live_triples(k).shape[1]
        rows = np.array(list(itertools.product(range(q), repeat=3)))
        dead = (rows % p == 0).all(axis=1)
        dead_prefixes = int(np.logical_or.outer(dead, dead).sum())
        e = oracle._sorted_triples(k + 1)
        assert np.array_equal(e[:, e[0] == 0], oracle._live_triples(k))
        first, _ = oracle._prime_power_weights(p, k)
        reps, sizes = oracle._prime_power_row_orbits(p, k)
        live = (reps % p).any(axis=0)
        r2 = [v[None, live] for v in reps.astype(oracle._kernel_type(q))]
        pairs, walked = [], 0
        for triples, coeffs in oracle._pair_blocks(p, k, r2):
            assert all(v.shape == (len(triples), live.sum()) for v in coeffs)
            pairs += itertools.product(triples.ravel().tolist(), np.flatnonzero(live).tolist())
            walked += int((first[triples] * sizes[live]).sum())
        assert sorted(pairs) == list(itertools.product(range(n_live), np.flatnonzero(live).tolist()))
        assert q**6 - walked == dead_prefixes
    seen = []
    oracle.census_tiered(n, progress=lambda done, total: seen.append((done, total)))
    assert seen[-1] == (n**6, n**6)


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
        oracle.census_2x2(7).counts,
    )


def test_results_do_not_depend_on_block_budget(monkeypatch, cold_tables):
    # _BLOCK = 1 gives one exponent triple per block of a table build and of
    # the left-over read, one prefix per naive block and one matrix per 2x2
    # block; the tables built
    # with the default blocks are dropped first
    default = _block_sensitive_results()
    monkeypatch.setattr(oracle, "_BLOCK", 1)
    oracle._prime_power_table.cache_clear()
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


def test_two_by_two_job_memory_is_bounded_by_the_block_budget():
    # a job of census_2x2(37) spans _CHUNK = 2^20 matrices, formed and
    # tallied _BLOCK at a time: the int32 digits, perm_det2's permanents and
    # determinants and the unit mask of one block. tracemalloc puts its peak
    # at 2.4 MB, where forming the whole chunk at once reached 29 MB. The
    # tally must be the whole chunk's, formed at once after the trace
    (args, size), *_ = oracle._range_jobs(37**4, 1, 37)
    assert size == oracle._CHUNK
    tracemalloc.start()
    try:
        tally = oracle._two_by_two_job(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6 * oracle._BLOCK * 8
    perm, det = perm_det2(oracle._digits(range(*args[1:]), 37, 4), 37)
    assert tally.tolist() == np.bincount(perm[oracle._unit_mask(37)[det]], minlength=37).tolist()


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
    # (127): the table builds and the left-over read form their pairs mod
    # each p^k || n in _kernel_type(p^k), with no cast, and the tables hold
    # int64 sums, one row per live exponent triple
    t = oracle._kernel_type(n)
    for p, k in factorize(n).factors:
        q = p**k
        reps, _ = oracle._prime_power_row_orbits(p, k)
        r2 = [v[None, :] for v in reps.astype(oracle._kernel_type(q))]
        _, coeffs = next(oracle._pair_blocks(p, k, r2))
        assert all(v.dtype == oracle._kernel_type(q) for v in coeffs), (p, k)
        table = oracle._prime_power_table(p, k)
        assert table.dtype == np.int64 and table.shape == (oracle._live_triples(k).shape[1], 4, 4, (k + 1) ** 2 + 1)
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
    # the orbit censuses never reach _sum_jobs and the naive one gives it 1,
    # so each checks threads itself
    with pytest.raises(ValueError, match="threads must be >= 1"):
        oracle._sum_jobs(sum, [((1, 2), 5)], threads, None)
    calls = [
        lambda: oracle.census_naive(2, threads=threads),
        lambda: oracle.census_tiered(12, threads=threads),
        lambda: oracle.class_census(3, 2, threads=threads),
        lambda: oracle.case_census(5, threads=threads),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="threads must be >= 1"):
            call()


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_naive_census_runs_every_job_on_the_calling_thread(monkeypatch, n):
    # a pool loses at every n the naive census admits, so threads=3 runs inline
    idents, real = [], oracle._naive_job

    def naive_job(args):
        idents.append(threading.get_ident())
        return real(args)

    monkeypatch.setattr(oracle, "_naive_job", naive_job)
    assert oracle.census_naive(n, threads=3).counts == CENSUS3[n]
    assert len(idents) == len(oracle._range_jobs(n**6, n**3)) > 1
    assert set(idents) == {threading.get_ident()}


@pytest.mark.parametrize("error", [MemoryError, RuntimeError])
def test_pool_job_exception_reaches_the_census_caller(monkeypatch, error):
    # census_2x2(37) splits into 2 jobs, which two threads run on a pool
    raised, idents = error("2x2 job"), []

    def two_by_two_job(args):
        idents.append(threading.get_ident())
        raise raised

    monkeypatch.setattr(oracle, "_two_by_two_job", two_by_two_job)
    assert len(oracle._range_jobs(37**4, 1)) == 2
    with pytest.raises(error) as info:
        oracle.census_2x2(37, threads=2)
    assert info.value is raised
    assert idents and threading.get_ident() not in idents


def test_parallel_censuses_are_deterministic():
    for threads in (1, 2, 3):
        assert oracle.census_tiered(7, threads=threads).counts == CENSUS3[7]
        assert oracle.census_naive(4, threads=threads).counts == CENSUS3[4]
    one = oracle.class_census(5, 1, threads=1)
    two = oracle.class_census(5, 1, threads=2)
    assert one.counts == two.counts


def _tracked_row_orbits(monkeypatch):
    """Weak references to every orbit array that _prime_power_row_orbits hands out from now on."""
    orbits, real = [], oracle._prime_power_row_orbits

    def row_orbits(p, k):
        out = real(p, k)
        orbits.extend(weakref.ref(v) for v in out)
        return out

    monkeypatch.setattr(oracle, "_prime_power_row_orbits", row_orbits)
    return orbits


def test_censuses_at_one_modulus_share_one_build(monkeypatch, cold_tables):
    # the tiered censuses at 12 = 2^2 3 and 24 = 2^3 3, the class censuses at
    # 2^2 and 3 and the case census at 3 read three tables, (2, 2), (2, 3) and
    # (3, 1): each is built once per process, and the cache holds only them,
    # a row per live exponent triple and no axis per orbit
    _tracked_row_orbits(monkeypatch)
    oracle.census_tiered(12)
    oracle.census_tiered(24)
    oracle.class_census(2, 2)
    oracle.class_census(3)
    oracle.case_census(3)
    info = oracle._prime_power_table.cache_info()
    assert info.misses == info.currsize == 3
    for p, k in ((2, 2), (2, 3), (3, 1)):
        shape = (oracle._live_triples(k).shape[1], 4, 4, (k + 1) ** 2 + 1)
        assert oracle._prime_power_table(p, k).shape == shape
    assert oracle._prime_power_table.cache_info().misses == 3


def test_a_census_at_another_modulus_releases_the_last_tables(monkeypatch, cold_tables):
    # what a census keeps is one summed table per prime power; every orbit
    # array it formed, of the table builds and of the class census's
    # left-over read, is freed by the time a census at another modulus ran
    orbits = _tracked_row_orbits(monkeypatch)
    oracle.census_tiered(12)
    oracle.class_census(2, 2)
    oracle.census_tiered(13)
    gc.collect()
    assert len(orbits) == 2 * 4 and all(ref() is None for ref in orbits)


def test_progress_hook_reports_completion():
    seen = []
    oracle.census_tiered(9, progress=lambda done, total: seen.append((done, total)))
    assert seen, "progress hook never called"
    assert seen[-1][0] == seen[-1][1] == 9**6
    assert all(a <= b for a, b in seen)
    assert [a for a, _ in seen] == sorted(a for a, _ in seen)
