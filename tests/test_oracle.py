import math

import numpy as np
import pytest

from gl3census import closed_form as cf
from gl3census import oracle
from gl3census.modring import factorize
from support import CASE_ROWS, CENSUS2, CENSUS3, CLASS_TABLE, object_census3


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


@pytest.mark.parametrize("n", [2, 3, 5, 7, 11, 13])
def test_prime_fast_path_matches_generic(n):
    t = oracle._form_tables(n)
    um = oracle._unit_mask(n)
    for rep in t.reps:
        fast = oracle._third_row_counts_prime(rep, n)
        slow = oracle._third_row_counts_generic(rep, n, um)
        assert fast.tolist() == slow.tolist(), rep


def test_generic_counts_random_signatures():
    rng = np.random.default_rng(7)
    for n in (4, 6, 9, 12):
        um = oracle._unit_mask(n)
        t = oracle._form_tables(n)
        for _ in range(25):
            sig = tuple(int(v) for v in rng.integers(0, n, 6))
            direct = oracle._third_row_counts_generic(sig, n, um)
            # bucketing a signature through its HNF key gives the same counts
            sid = int(oracle._hnf_buckets(t, [np.array(v) for v in sig]))
            via_rep = oracle._third_row_counts_generic(t.reps[sid], n, um)
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
    # every bucket's representative lands in its own bucket
    for sid, rep in enumerate(t.reps):
        assert int(oracle._hnf_buckets(t, [np.array(v) for v in rep])) == sid
        assert len(_closure(list(zip(rep[:3], rep[3:])), n)) == t.sizes[sid]


@pytest.mark.parametrize("n", [20, 25, 27])
def test_tiered_census_beyond_default_limit(n):
    assert oracle.census_tiered(n, limit=n).counts == tuple(cf.count(n, x) for x in range(n))


def test_single_job_runs_inline():
    # a lambda cannot be pickled, so this would fail on a process pool
    assert list(oracle._map_jobs(lambda args: sum(args), [((1, 2), 5)], 4, None)) == [3]


@pytest.mark.parametrize("threads", [0, -1])
def test_threads_below_one_raise(threads):
    with pytest.raises(ValueError, match="threads must be >= 1"):
        list(oracle._map_jobs(sum, [((1, 2), 5)], threads, None))
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
