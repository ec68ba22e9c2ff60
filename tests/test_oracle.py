import functools
import itertools
import math

import numpy as np
import pytest

from gl3census import closed_form as cf
from gl3census import oracle
from gl3census.matrices import CLASS_LABELS, forms, perm_det, subperms
from gl3census.modring import factorize
from support import (
    CASE_ROWS,
    CENSUS2,
    CENSUS3,
    CLASS_TABLE,
    object_census3,
    third_row_counts_generic,
)


@pytest.mark.parametrize("n", sorted(CENSUS3))
def test_tiered_census_matches_frozen(n):
    assert oracle.census_tiered(n).counts == CENSUS3[n]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
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


def test_bounds_are_enforced():
    with pytest.raises(oracle.CensusTooLarge) as err:
        oracle.census_naive(9)
    assert "n <= 8" in str(err.value)
    with pytest.raises(oracle.CensusTooLarge):
        oracle.census_tiered(17)
    with pytest.raises(oracle.CensusTooLarge):
        oracle.census_2x2(51)
    # bounds are configurable
    assert oracle.census_naive(9, limit=9).counts == CENSUS3[9]


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
        perm, det = perm_det(e, n)
        units = [np.broadcast_to(v % p != 0, perm.shape) for v in subperms(e, n)]
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
    """C21, C22 and violation tallies of every prefix (u2 rep2, u3 rep3) against all n^3 first rows."""
    units = np.array([u for u in range(1, n) if math.gcd(u, n) == 1])
    rows2 = np.unique(np.outer(units, rep2) % n, axis=0)
    rows3 = np.unique(np.outer(units, rep3) % n, axis=0)
    prefixes = np.array([[*a, *b] for a in rows2 for b in rows3])
    first = [(np.arange(n**3) // n**t % n)[None, :] for t in range(3)]
    e = [*first, *(prefixes[:, [c]] for c in range(6))]
    perm, det = perm_det(e, n)
    _, _, _, p21, p22 = subperms(e, n)
    label = np.where(p21 % p != 0, 0, np.where(p22 % p != 0, 1, 2))
    return np.bincount((label * n + perm)[det % p != 0], minlength=3 * n).reshape(3, n)


@pytest.mark.parametrize("p,k,pairs", [(3, 2, None), (5, 2, 2)])
def test_leftover_tally_matches_member_sweep(p, k, pairs):
    # left-over pairs with an invertible completion; at p = 2 there are none,
    # and at k = 1 their permanents are all 0, so these pin the unit relabelling
    n = p**k
    o = oracle._row_orbits(n)
    i, j = np.indices((len(o.sizes),) * 2).reshape(2, -1)
    A, B, C, D, E, F = (v % p for v in forms([v[i] for v in o.reps], [v[j] for v in o.reps], n))
    left = np.flatnonzero((A == 0) & (B == 0) & (C == 0) & ((D != 0) | (E != 0) | (F != 0)))
    nonzero_permanents = 0
    for pair in left[:pairs]:
        tally = oracle._leftover_tally(o, i[[pair]], j[[pair]], p, n)
        reps = [[int(v[x]) for v in o.reps] for x in (i[pair], j[pair])]
        assert tally.tolist() == _member_sweep(*reps, p, n).tolist(), reps
        nonzero_permanents += int(tally[:, 1:].sum())
    assert nonzero_permanents > 0


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


def test_form_tables_subgroup_counts():
    # (Z/p)^2 has the trivial group, p+1 lines, and the full group
    for p in (2, 3, 5, 7, 11, 13):
        t = oracle._form_tables(p)
        assert len(t.sizes) == p + 3
        assert sorted(set(t.sizes)) == [1, p, p * p]
        for size in t.sizes:
            assert (p * p) % size == 0  # Lagrange


def test_form_tables_composite_eleven_twelve():
    # subgroup lattice of (Z/12)^2 is the product of the 4- and 3-part lattices
    t12 = oracle._form_tables(12)
    t4 = oracle._form_tables(4)
    t3 = oracle._form_tables(3)
    assert len(t12.sizes) == len(t4.sizes) * len(t3.sizes)


def _signature(triple, n):
    """Forms (A, B, C, D, E, F) whose columns (A, D), (B, E), (C, F) span the subgroup."""
    a, b, d = triple
    return (a % n, b, 0, 0, d % n, 0)


@pytest.mark.parametrize("n", range(1, 33))
def test_bucket_tables_match_third_row_sweep(n):
    t = oracle._form_tables(n)
    tables = oracle._bucket_tables(n)
    assert tables.shape == (len(t.triples), n)
    for triple, row in zip(t.triples, tables):
        assert row.tolist() == third_row_counts_generic(_signature(triple, n), n).tolist(), triple


def test_generic_counts_random_signatures():
    rng = np.random.default_rng(7)
    for n in (4, 6, 9, 12):
        t = oracle._form_tables(n)
        tables = oracle._bucket_tables(n)
        for _ in range(25):
            sig = tuple(int(v) for v in rng.integers(0, n, 6))
            direct = third_row_counts_generic(sig, n)
            # bucketing a signature through its HNF key gives the same counts
            sid = int(oracle._hnf_buckets(t, [np.array(v) for v in sig]))
            via_rep = tables[sid]
            assert direct.tolist() == via_rep.tolist()


def _closure(cols, n):
    """The subgroup of (Z/n)^2 spanned by the columns, by brute force over all combinations."""
    coeffs = oracle._digits(range(n**3), n, 3)
    u = sum(c * a for c, (a, _) in zip(coeffs, cols)) % n
    v = sum(c * d for c, (_, d) in zip(coeffs, cols)) % n
    return frozenset((u * n + v).tolist())


def _same_subgroup(cols, rng, n):
    """Permute, shear and unit-scale the columns: the span does not change."""
    units = [u for u in range(1, n) if math.gcd(u, n) == 1]
    cols = [cols[i] for i in rng.permutation(3)]
    i, j = rng.choice(3, 2, replace=False)
    k = int(rng.integers(n))
    cols[i] = ((cols[i][0] + k * cols[j][0]) % n, (cols[i][1] + k * cols[j][1]) % n)
    return [(u * a % n, u * d % n) for (a, d), u in zip(cols, rng.choice(units, 3))]


@pytest.mark.parametrize("n", [4, 6, 8, 9, 12, 16])
def test_hnf_keys_are_canonical_for_subgroups(n):
    rng = np.random.default_rng(n)
    t = oracle._form_tables(n)
    divisors = [d for d in range(1, n + 1) if n % d == 0]
    triples = []
    for _ in range(30):
        base = [
            tuple(int(rng.integers(n)) * int(rng.choice(divisors)) % n for _ in range(2))
            for _ in range(3)
        ]
        triples += [base, _same_subgroup(base, rng, n)]
    forms = [np.array([cols[i][c] for cols in triples]) for c in (0, 1) for i in range(3)]
    keys = oracle._hnf_buckets(t, forms).tolist()
    closures = [_closure(cols, n) for cols in triples]
    assert len(set(closures)) > 5
    for i in range(len(triples)):
        assert len(closures[i]) == t.sizes[keys[i]]
        for j in range(i):
            assert (keys[i] == keys[j]) == (closures[i] == closures[j]), (triples[i], triples[j])
    # every bucket's triple, as a signature, lands in its own bucket
    for sid, triple in enumerate(t.triples):
        rep = _signature(triple, n)
        assert int(oracle._hnf_buckets(t, [np.array(v) for v in rep])) == sid
        assert len(_closure(list(zip(rep[:3], rep[3:])), n)) == t.sizes[sid]


@pytest.mark.parametrize("n", range(2, 33))
def test_bucket_symmetries_of_the_orbit_pass(n):
    # unit row and column scaling keep a prefix's subgroup key; column
    # permutations and the row swap may negate the determinant coordinate,
    # which moves the key but keeps the bucket's third-row counts
    rng = np.random.default_rng(n)
    t = oracle._form_tables(n)
    tables = oracle._bucket_tables(n)
    units = np.flatnonzero(oracle._unit_mask(n))
    r1, r2 = rng.integers(0, n, size=(2, 3, 200))

    def key(a, b):
        return oracle._hnf_buckets(t, forms(list(a), list(b), n))

    base = key(r1, r2)
    u, v = rng.choice(units, size=(2, 1, 200))
    assert (key(r1 * u % n, r2 * v % n) == base).all()
    d = rng.choice(units, size=(3, 200))
    assert (key(r1 * d % n, r2 * d % n) == base).all()
    for cols in itertools.permutations(range(3)):
        assert (tables[key(r1[list(cols)], r2[list(cols)])] == tables[base]).all(), cols
    assert (tables[key(r2, r1)] == tables[base]).all()


def test_tally_sums_weights_exactly():
    # 2^61 + 1 is not a float64, so a float accumulator would drop the 1
    key = np.array([[0, 1, 2], [2, 1, 0]])
    got = oracle._tally(key, np.array([[2**60 + 1, 10, 100], [1, 10, 2**60]]), 4)
    assert got.tolist() == [2**61 + 1, 20, 101, 0]


def _block_sensitive_results():
    counts, violations = oracle._class_scan(3, 2)
    return oracle.census_tiered(12).counts, counts.tolist(), violations, oracle.case_census(7)


def test_results_do_not_depend_on_block_budget(monkeypatch):
    # _BLOCK = 1 gives one first-row orbit per bucket block and one pair per
    # left-over block
    default = _block_sensitive_results()
    monkeypatch.setattr(oracle, "_BLOCK", 1)
    assert _block_sensitive_results() == default


@functools.lru_cache(maxsize=None)
def tiered_counts(n):
    """census_tiered(n, limit=n).counts, computed once for the tests below."""
    return oracle.census_tiered(n, limit=n).counts


@pytest.mark.parametrize("n", [20, 25, 27, 28, 30, 32])
def test_tiered_census_beyond_default_limit(n):
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
    # perm_det, subperms and forms on residues mod n stay within 3 (n - 1)^2
    assert oracle._int_type(3 * (n - 1) ** 2) is oracle._kernel_type(n) is want


def test_int_type_refuses_past_int64():
    assert oracle._int_type(2**63 - 1) is np.int64
    with pytest.raises(OverflowError):
        oracle._int_type(2**63)


@pytest.mark.parametrize("p,k", [(2, 4), (5, 2), (2, 5)])
def test_class_census_beyond_default_limit(p, k):
    n = p**k
    cc = oracle.class_census(p, k, limit=n)
    assert cc.marginal().counts == tuple(cf.count(n, x) for x in range(n))
    if p != 2:
        for label in CLASS_LABELS:
            assert cc.count(0, label) == cf.class_count_prime_power_zero(p, k, label), label


def test_int64_ceiling_ignores_limit(monkeypatch):
    # 127^9 < 2^63 <= 128^9: refused before any enumeration, whatever limit= says
    monkeypatch.setattr(oracle, "_sum_jobs", lambda *args: pytest.fail("enumeration started"))
    calls = [
        lambda: oracle.census_tiered(128, limit=10**6),
        lambda: oracle.census_naive(128, limit=10**6),
        lambda: oracle._class_scan(2, 7, limit=10**6),
        lambda: oracle.case_census(131, limit=10**6),
    ]
    for call in calls:
        with pytest.raises(oracle.CensusTooLarge, match="n <= 127"):
            call()


def test_single_job_runs_inline():
    # a lambda cannot be pickled, so this would fail on a process pool
    assert oracle._sum_jobs(lambda args: sum(args), [((1, 2), 5)], 4, None) == 3


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


def test_progress_hook_reports_completion():
    seen = []
    oracle.census_tiered(9, progress=lambda done, total: seen.append((done, total)))
    assert seen, "progress hook never called"
    assert seen[-1][0] == seen[-1][1] == 9**6
    assert all(a <= b for a, b in seen)
    assert [a for a, _ in seen] == sorted(a for a, _ in seen)
