"""Exhaustive, exact censuses of GL3(Z/n) by permanent value.

Two engines produce the same table. census_naive evaluates all n^9 matrices
by cofactor expansion, sweeping every first row against chunks of (row 2,
row 3) prefixes through matrices.perm_det; it keeps no symmetry, is the dumb,
trustworthy reference and refuses n > 8. census_tiered works on prefixes
(the first two rows): for a fixed prefix, both the permanent and the
determinant are linear forms in the third row, and the joint distribution of
the two forms depends only on the subgroup of (Z/n)^2 generated by their three
coefficient columns. Each subgroup is keyed by the Hermite normal form of its
lattice between nZ^2 and Z^2, and its third-row counts are read off that
basis: the forms map the n^3 third rows onto the subgroup H with every fiber
of size n^3/|H|, so the counts are the first coordinates of the elements of H
whose second coordinate is a unit, each counted n^3/|H| times. The two engines
agree entry for entry wherever both run.

The coefficients are bilinear in the two prefix rows, so scaling either row by
a unit scales every coefficient by that unit and leaves the subgroup alone.
The prefix pass therefore walks pairs of row orbits under unit scaling rather
than all n^6 prefixes, and weights each pair by the product of its orbit sizes
(orbit counting, as in Burnside's lemma). class_census and case_census share
that pass: the class head and the zero pattern they key on are unchanged by
unit scaling too.

Censuses may run on several worker processes; orbit pairs (or, for the
scanning engines, index ranges) are split into fixed chunks, each worker
tallies its chunks into int64 arrays, and the merge adds them in chunk order.
Results are identical for every thread count.
"""

from __future__ import annotations

import contextlib
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .closed_form import CaseCensusRow
from .matrices import CLASS_LABELS, ClassLabel, forms, perm_det, perm_det2, subperms
from .modring import Modulus, factorize, is_prime

NAIVE_LIMIT = 8
TIERED_LIMIT = 16
TWO_BY_TWO_LIMIT = 50
# A 3x3 census counts at most n^9 matrices in int64 tallies (bincounts and the
# products mult @ tables); 127^9 < 2^63 <= 128^9, so no limit= lets a 3x3
# census run past n = 127.
INT64_CEILING = 127

_CHUNK = 1 << 20  # matrices, or orbit pairs, per job
_BLOCK = 1 << 16  # array elements per vectorized block of the orbit pass; bounds its memory


class CensusTooLarge(ValueError):
    """Raised when a census is asked to enumerate beyond its size bound."""

    def __init__(self, engine: str, n: int, bound: int, hint: str = ""):
        msg = f"{engine} refuses n = {n}: bound is n <= {bound}"
        if hint:
            msg += f"; {hint}"
        super().__init__(msg)
        self.engine = engine
        self.n = n
        self.bound = bound


def _check_bound(engine: str, n: int, limit: int, hint: str = "") -> None:
    """Raise CensusTooLarge past limit, or past INT64_CEILING whatever limit says."""
    bound = min(limit, INT64_CEILING)
    if n > bound:
        raise CensusTooLarge(engine, n, bound, hint)


@dataclass(frozen=True)
class CountTable:
    """counts[x] = number of matrices in GL3(Z/n) with permanent x."""

    modulus: Modulus
    counts: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.counts) != self.modulus.n:
            raise ValueError("count table length must equal the modulus")

    @property
    def n(self) -> int:
        return self.modulus.n

    def __getitem__(self, x: int) -> int:
        return self.counts[x % self.modulus.n]

    def total(self) -> int:
        return sum(self.counts)


@dataclass(frozen=True)
class ClassCensus:
    """Per-permanent, per-class counts over GL3(Z/p^k).

    counts[x] lists the five class counts in CLASS_LABELS order; every
    invertible matrix lands in exactly one class, so the rows sum to the
    permanent census.
    """

    p: int
    k: int
    counts: tuple[tuple[int, int, int, int, int], ...]

    @property
    def n(self) -> int:
        return self.p**self.k

    def count(self, x: int, label: ClassLabel) -> int:
        return self.counts[x % self.n][CLASS_LABELS.index(label)]

    def marginal(self) -> CountTable:
        return CountTable(factorize(self.n), tuple(sum(row) for row in self.counts))


@dataclass(frozen=True)
class CaseCensus:
    """Zero-permanent census at an odd prime, split by first/second-row zero patterns."""

    p: int
    rows: tuple[CaseCensusRow, ...]

    def count(self, row1_nonzeros: int, row2_nonzeros: int | None) -> int:
        for row in self.rows:
            if row.key == (row1_nonzeros, row2_nonzeros):
                return row.count
        raise KeyError((row1_nonzeros, row2_nonzeros))

    def total(self) -> int:
        return sum(r.count for r in self.rows)


# ---------------------------------------------------------------------------
# shared helpers


def _unit_mask(n: int) -> np.ndarray:
    return np.gcd(np.arange(n, dtype=np.int64), n) == 1


def _inverse_table(n: int, dtype):
    """inverse[v] = v^-1 mod n for units v, 0 elsewhere."""
    return np.array([pow(v, -1, n) if gcd(v, n) == 1 else 0 for v in range(n)], dtype=dtype)


def _int_type(bound: int) -> type[np.signedinteger]:
    """The narrowest signed numpy integer type that holds every value in [-bound, bound].

    Callers pass the largest intermediate their arithmetic reaches. Raises
    OverflowError past int64.
    """
    for t in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(t).max:
            return t
    raise OverflowError(f"no numpy integer type holds {bound}")


def _kernel_type(n: int) -> type[np.signedinteger]:
    """The narrowest type for the kernel's arithmetic on residues mod n.

    matrices.forms, perm_det and subperms on entries in [0, n) stay within
    3 (n - 1)^2 in magnitude, so int8 serves n <= 7 and int16 n <= 105. numpy
    wraps integer arrays silently on overflow, so this bound is the only guard.
    """
    return _int_type(3 * (n - 1) ** 2)


def _digits(idx, n: int, k: int) -> list[np.ndarray]:
    """The k base-n digits (least significant first) of idx, a range or an index array.

    A range is enumerated in int32 whenever its stop is below 2^31, since
    every index it holds, and so every digit, is below stop. That stop is the
    largest value here: n^3 in _row_orbits, n^6 or n^4 in the naive and 2x2
    sweeps. Callers that compute with the digits bound that arithmetic
    themselves. An array keeps its dtype.
    """
    if isinstance(idx, range):
        idx = np.arange(idx.start, idx.stop, dtype=np.int32 if idx.stop < 2**31 else np.int64)
    out = []
    for _ in range(k):
        out.append(idx % n)
        idx = idx // n
    return out


def _sum_jobs(fn, jobs, threads, progress):
    """Sum fn(args) over (args, size) jobs, inline or on a process pool, adding in job order.

    progress(done, total) reports the summed sizes of the jobs finished. The
    pool has at most one worker per job, and a single job runs inline.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    total = sum(size for _, size in jobs)
    workers = min(threads, len(jobs))
    arglist = [args for args, _ in jobs]
    pool_cm = ProcessPoolExecutor(max_workers=workers) if workers > 1 else contextlib.nullcontext()
    with pool_cm as pool:
        results = pool.map(fn, arglist) if pool is not None else map(fn, arglist)
        done = out = 0
        for (_, size), res in zip(jobs, results):
            out = out + res
            done += size
            if progress is not None:
                progress(done, total)
    return out


# ---------------------------------------------------------------------------
# linear-form buckets: subgroups of (Z/n)^2, keyed by Hermite normal form
#
# A pair of linear forms (perm, det) in the third row is summarized by the
# subgroup H of (Z/n)^2 generated by its three coefficient columns. The forms
# map the n^3 third rows uniformly onto H, so two prefixes whose columns
# generate the same subgroup have identical third-row count tables. The
# lattice H + nZ^2 of Z^2 has a unique basis (a, 0), (b, d) with a | n, d | n
# and 0 <= b < a (H. Cohen, A Course in Computational Algebraic Number Theory,
# GTM 138, section 2.4); the triple (a, b, d) is the subgroup's key.


@dataclass(frozen=True, eq=False)
class _FormTables:
    n: int
    triples: tuple[tuple[int, int, int], ...]  # HNF (a, b, d): H = <(a, 0), (b, d)> mod n
    sizes: tuple[int, ...]  # subgroup orders
    bucket: np.ndarray  # dense HNF key -> subgroup index; -1 for no subgroup
    euclid: np.ndarray  # (n + 1, n, 3): (g, s, t) with s*y + t*v = g = gcd(y, v)


def _hnf_index(n, a, b, d):
    return (a * n + b) * (n + 1) + d


def _ext_gcd(y: int, v: int) -> tuple[int, int, int]:
    s0, s1, t0, t1 = 1, 0, 0, 1
    while v:
        q, y, v = y // v, v, y % v
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return y, s0, t0


@lru_cache(maxsize=None)
def _form_tables(n: int) -> _FormTables:
    """Every subgroup of (Z/n)^2 as an HNF triple.

    (a, b, d) is a valid triple when the lattice it spans contains nZ^2:
    a | n, d | n and a | b * (n / d).
    """
    divisors = [v for v in range(1, n + 1) if n % v == 0]
    triples = [
        (a, b, d) for a in divisors for d in divisors for b in range(a) if b * (n // d) % a == 0
    ]
    bucket = np.full(n * (n + 1) ** 2, -1, dtype=np.int64)
    for sid, (a, b, d) in enumerate(triples):
        bucket[_hnf_index(n, a, b, d)] = sid
    euclid = np.array([[_ext_gcd(y, v) for v in range(n)] for y in range(n + 1)], dtype=np.int64)
    return _FormTables(
        n=n,
        triples=tuple(triples),
        sizes=tuple(n * n // (a * d) for a, _, d in triples),
        bucket=bucket,
        euclid=euclid,
    )


def _hnf_buckets(t: _FormTables, forms) -> np.ndarray:
    """Subgroup index of the columns (A, D), (B, E), (C, F) of forms = (A, B, C, D, E, F).

    Row reduction from the pivot (0, n): an extended-Euclid step on second
    coordinates folds each column into the pivot, and the combination it
    drops has second coordinate 0, so it joins aZ x 0. What is left is the
    HNF basis (a, 0), (b, d). Entries of forms lie in [0, n).
    """
    n = t.n
    A, B, C, D, E, F = forms
    a = np.full(np.shape(A), n, dtype=np.int64)
    b = np.zeros_like(a)
    d = np.full_like(a, n)
    for u, v in ((A, D), (B, E), (C, F)):
        g, s, r = np.moveaxis(t.euclid[d, v], -1, 0)
        a = np.gcd(a, (v // g) * b - (d // g) * u)
        b = (s * b + r * u) % a
        d = g
    return t.bucket[_hnf_index(n, a, b, d)]


def _bucket_tables(n: int) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows, one row per subgroup.

    H = <(a, 0), (b, d)> has the |H| = n^2 / (a d) distinct elements
    i (a, 0) + j (b, d) mod n, 0 <= i < n / a, 0 <= j < n / d. The forms map
    the n^3 third rows onto H, each element n^3 / |H| times, so a row counts
    the first coordinates of the elements whose second coordinate is a unit.
    The elements of every subgroup are enumerated in one flat array.
    """
    t = _form_tables(n)
    sizes = np.array(t.sizes, dtype=np.int64)
    sid = np.repeat(np.arange(sizes.size), sizes)  # the subgroup of each element
    a, b, d = (np.array(v, dtype=np.int64)[sid] for v in zip(*t.triples))
    e = np.arange(sid.size) - (np.cumsum(sizes) - sizes)[sid]  # index within its subgroup
    i, j = e % (n // a), e // (n // a)
    key = sid * n + (i * a + j * b) % n
    counts = np.bincount(key[_unit_mask(n)[j * d % n]], minlength=sizes.size * n)
    return counts.reshape(sizes.size, n) * (n**3 // sizes)[:, None]


# ---------------------------------------------------------------------------
# the orbit-pair prefix pass
#
# Scaling a prefix row by a unit scales all six forms by that unit, which
# keeps the subgroup, whether P11, P12 or P13 is a unit, and the zero pattern.
# Each prefix engine therefore tallies one representative pair of row orbits
# with weight |orbit 1| * |orbit 2|, summed per key in int64: a weight is at
# most phi(n)^2 and a key's sum at most n^6 <= 127^6 < 2^43, so sums are exact.


@dataclass(frozen=True, eq=False)
class _RowOrbits:
    """Orbits of (Z/n)^3 under scaling by units.

    Row index r0 + r1 n + r2 n^2. reps holds the least member of each orbit
    as three digit arrays and sizes each orbit's size.
    """

    reps: tuple[np.ndarray, np.ndarray, np.ndarray]
    sizes: np.ndarray


@lru_cache(maxsize=None)
def _row_orbits(n: int) -> _RowOrbits:
    rows = _digits(range(n**3), n, 3)
    least = None
    for u in np.flatnonzero(_unit_mask(n)):
        image = (u * rows[0]) % n + (u * rows[1]) % n * n + (u * rows[2]) % n * (n * n)
        least = image if least is None else np.minimum(least, image)
    rep_idx, sizes = np.unique(least, return_counts=True)
    return _RowOrbits(
        reps=tuple(v.astype(np.int64) for v in _digits(rep_idx, n, 3)),
        sizes=sizes.astype(np.int64),
    )


def _orbit_jobs(n: int, *extra) -> list[tuple[tuple, int]]:
    """Chunks of orbit pairs, split by first-row orbit, as (job args, prefixes covered).

    Job (n, i0, i1, *extra) takes the pairs (i, j) with i0 <= i < i1 and every
    j. Raises RuntimeError unless the pair weights sum to n^6.
    """
    o = _row_orbits(n)
    m = len(o.sizes)
    step = max(1, _CHUNK // m)
    row_total = int(o.sizes.sum())
    jobs = [
        ((n, i, min(i + step, m), *extra), int(o.sizes[i : i + step].sum()) * row_total)
        for i in range(0, m, step)
    ]
    covered = sum(size for _, size in jobs)
    if covered != n**6:
        raise RuntimeError(f"row orbits mod {n} cover {covered} prefixes, not n^6 = {n**6}")
    return jobs


def _orbit_blocks(n: int, i0: int, i1: int):
    """Blocks of orbit pairs (i, j), i0 <= i < i1, as (rows, forms, buckets, weights).

    rows is the slice of first-row orbits in the block; the arrays are shaped
    (first-row orbits, all second-row orbits), with at most max(_BLOCK, m)
    elements for m row orbits. weights are the pairs' |orbit i| * |orbit j|.
    """
    o = _row_orbits(n)
    t = _form_tables(n)
    r2 = [v[None, :] for v in o.reps]
    step = max(1, _BLOCK // len(o.sizes))
    for s in range(i0, i1, step):
        rows = slice(s, min(s + step, i1))
        coeffs = forms([v[rows, None] for v in o.reps], r2, n)
        yield rows, coeffs, _hnf_buckets(t, coeffs), o.sizes[rows, None] * o.sizes[None, :]


def _tally(key, weights, n_keys: int) -> np.ndarray:
    """Exact int64 sums of weights per key in [0, n_keys); key and weights share a shape."""
    out = np.zeros(n_keys, dtype=np.int64)
    np.add.at(out, np.ravel(key), np.ravel(weights))  # flat operands take add.at's fast path
    return out


# ---------------------------------------------------------------------------
# censuses


def _tiered_job(args):
    n, i0, i1 = args
    n_subs = len(_form_tables(n).sizes)
    mult = np.zeros(n_subs, dtype=np.int64)
    for _, _, s, w in _orbit_blocks(n, i0, i1):
        mult += _tally(s, w, n_subs)
    return mult


def census_tiered(
    n: int | Modulus, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT
) -> CountTable:
    """Exact permanent census over GL3(Z/n) via orbit-pair bucketing; n <= 16 by default."""
    modulus = factorize(n) if isinstance(n, int) else n
    n = modulus.n
    _check_bound("census_tiered", n, limit)
    counts = _sum_jobs(_tiered_job, _orbit_jobs(n), threads, progress) @ _bucket_tables(n)
    return CountTable(modulus, tuple(int(v) for v in counts))


def _scan_census(job, modulus: Modulus, count: int, per_index: int, threads, progress):
    """Add up job(n, start, stop) over chunks of [0, count); each index is per_index matrices."""
    n = modulus.n
    step = max(1, _CHUNK // per_index)
    bounds = [(s, min(s + step, count)) for s in range(0, count, step)]
    jobs = [((n, a, b), (b - a) * per_index) for a, b in bounds]
    counts = _sum_jobs(job, jobs, threads, progress)
    return CountTable(modulus, tuple(int(v) for v in counts))


def _naive_job(args):
    """Every first row against the (row 2, row 3) prefixes start..stop-1."""
    n, start, stop = args
    t = _kernel_type(n)
    first = [v.astype(t) for v in _digits(range(n**3), n, 3)]
    prefixes = [v.astype(t)[:, None] for v in _digits(range(start, stop), n, 6)]
    perm, det = perm_det([*first, *prefixes], n)
    return np.bincount(perm[_unit_mask(n)[det]], minlength=n)


def census_naive(
    n: int | Modulus, *, threads: int = 1, progress=None, limit: int = NAIVE_LIMIT
) -> CountTable:
    """Exact permanent census by evaluating all n^9 matrices; n <= 8 by default."""
    modulus = factorize(n) if isinstance(n, int) else n
    n = modulus.n
    _check_bound("census_naive", n, limit, hint="use census_tiered")
    return _scan_census(_naive_job, modulus, n**6, n**3, threads, progress)


def _two_by_two_job(args):
    n, start, stop = args
    perm, det = perm_det2(_digits(range(start, stop), n, 4), n)
    return np.bincount(perm[_unit_mask(n)[det]], minlength=n)


def census_2x2(
    n: int | Modulus, *, threads: int = 1, progress=None, limit: int = TWO_BY_TWO_LIMIT
) -> CountTable:
    """Exact permanent census over GL2(Z/n), scanning all n^4 matrices."""
    modulus = factorize(n) if isinstance(n, int) else n
    n = modulus.n
    if n > limit:
        raise CensusTooLarge("census_2x2", n, limit)
    return _scan_census(_two_by_two_job, modulus, n**4, 1, threads, progress)


# ---------------------------------------------------------------------------
# class census: prefix = rows 2 and 3, inner variable = row 1
#
# The three row-1 sub-permanents P11, P12, P13 depend only on the prefix; if
# one of them is a unit mod p the class of every matrix over that prefix is
# already decided, and the (perm, det) pair is again two linear forms in the
# inner row. With rows 2 and 3 as the prefix, P11, P12, P13 are the forms A, B,
# C and the row-1 cofactors are D, E, F.
#
# The orbit pairs whose P11, P12, P13 are all divisible by p are left over:
# there the class depends on the first row, through P21 and then P22. A
# left-over pair whose cofactors D, E, F are all divisible by p too has no
# invertible completion and is skipped. At p = 2 that is every left-over
# pair, since each cofactor is then congruent to its sub-permanent.
#
# Two symmetries reduce each remaining pair to one representative prefix
# swept against one representative first row per orbit; U is the unit group.
# - Scaling the first row by a unit w multiplies the determinant, the
#   permanent, P21 and P22 by w. If first-row orbit r has size s_r and
#   permanent v_r, its rows put s_r / |U| * #{w in U : w v_r = v} matrices
#   at v. So over all n^3 first rows the tally is
#   t[v] = 1/|U| * sum over w in U of T[w v], where T adds s_r at v_r. The
#   division is exact; _leftover_tally raises RuntimeError if it is not.
# - Scaling rows 2 and 3 by units u2 and u3 leaves unchanged, for every
#   first row, whether the determinant is a unit and whether P21 or P22 is,
#   and multiplies the permanent by u2 u3. As t[v] = t[u v] for every unit
#   u, every prefix of the pair (i, j) has the tally t, and the pair
#   contributes s_i s_j t.
# Unit-determinant matrices with neither P21 nor P22 a unit are violations.


def _leftover_tally(o: _RowOrbits, i: np.ndarray, j: np.ndarray, p: int, n: int) -> np.ndarray:
    """C21, C22 and violation tallies by permanent of the orbit pairs (i, j), shaped (3, n).

    A function, so that each block's (pairs x first-row orbits) arrays are
    freed before the next block allocates its own.
    """
    r = [v.astype(_kernel_type(n)) for v in o.reps]
    e = [*(v[None, :] for v in r), *(v[i, None] for v in r), *(v[j, None] for v in r)]
    perm, det = perm_det(e, n)
    _, _, _, p21, p22 = subperms(e, n)
    label = np.where(p21 % p != 0, 0, np.where(p22 % p != 0, 1, 2))
    key = (np.arange(i.size)[:, None] * 3 + label) * n + perm
    weights = np.where(_unit_mask(n)[det], o.sizes, 0)
    tally = _tally(key, weights, 3 * n * i.size).reshape(i.size, 3, n)
    units = np.flatnonzero(_unit_mask(n))
    whole, rest = np.divmod(tally[:, :, np.outer(units, np.arange(n)) % n].sum(axis=2), units.size)
    if rest.any():
        raise RuntimeError(f"left-over class tallies mod {n} are not divisible by {units.size}")
    return np.tensordot(o.sizes[i] * o.sizes[j], whole, axes=1)


def _class_job(args):
    """(3, subgroups + n): prefixes per (head class, subgroup), then the left-over tallies."""
    n, i0, i1, p = args
    o = _row_orbits(n)
    n_subs = len(_form_tables(n).sizes)
    mult = np.zeros(3 * n_subs, dtype=np.int64)
    left = np.zeros((3, n), dtype=np.int64)
    step = max(1, _BLOCK // len(o.sizes))  # left-over pairs per block
    for rows, (p11, p12, p13, d1, d2, d3), s, w in _orbit_blocks(n, i0, i1):
        u1 = p11 % p != 0
        u2 = p12 % p != 0
        u3 = p13 % p != 0
        headed = u1 | u2 | u3
        lab = np.where(u1, 0, np.where(u2, 1, 2))
        mult += _tally((lab * n_subs + s)[headed], w[headed], 3 * n_subs)
        i, j = np.nonzero(~headed & ((d1 % p != 0) | (d2 % p != 0) | (d3 % p != 0)))
        for b in range(0, i.size, step):
            left += _leftover_tally(o, i[b : b + step] + rows.start, j[b : b + step], p, n)
    return np.hstack([mult.reshape(3, n_subs), left])


def _class_scan(p: int, k: int, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT):
    """Shared engine for class_census and the emptiness scan.

    Returns (counts, violations): counts is an (n, 5) int array of per-x
    per-class tallies over GL3(Z/p^k); violations counts invertible matrices
    with no unit among the five sub-permanents (always 0 in practice).
    """
    if not is_prime(p):
        raise ValueError(f"class census needs a prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    n = p**k
    _check_bound("class_census", n, limit)
    tallies = _sum_jobs(_class_job, _orbit_jobs(n, p), threads, progress)
    tables = _bucket_tables(n)
    heads, left = np.split(tallies, [len(tables)], axis=1)
    return np.vstack([heads @ tables, left[:2]]).T, int(left[2].sum())


def class_census(
    p: int, k: int = 1, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT
) -> ClassCensus:
    """Per-permanent, per-class census over GL3(Z/p^k)."""
    counts, violations = _class_scan(p, k, threads=threads, progress=progress, limit=limit)
    if violations:
        raise RuntimeError(
            f"{violations} invertible matrices mod {p}^{k} fell outside the five classes"
        )
    return ClassCensus(p, k, tuple(tuple(int(v) for v in row) for row in counts))


# ---------------------------------------------------------------------------
# zero-pattern case census


# pattern index by (row-1 nonzeros, row-2 nonzeros); 7 = impossible (an all-zero row)
_PATTERN_OF = np.array(
    [
        [7, 7, 7, 7],
        [7, 0, 0, 0],
        [7, 1, 2, 3],
        [7, 4, 5, 6],
    ],
    dtype=np.int64,
)
_PATTERN_KEYS = ((1, None), (2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3))


def _case_job(args):
    n, i0, i1 = args
    o = _row_orbits(n)
    n_subs = len(_form_tables(n).sizes)
    nnz = sum((v != 0).astype(np.int64) for v in o.reps)
    mult = np.zeros(8 * n_subs, dtype=np.int64)
    for rows, _, s, w in _orbit_blocks(n, i0, i1):
        pattern = _PATTERN_OF[nnz[rows, None], nnz[None, :]]
        mult += _tally(pattern * n_subs + s, w, 8 * n_subs)
    return mult


def case_census(
    p: int, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT
) -> CaseCensus:
    """Zero-permanent census over GL3(Z/p) split by the seven zero-pattern rows."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"case census needs an odd prime, got {p}")
    _check_bound("case_census", p, limit)
    mult = _sum_jobs(_case_job, _orbit_jobs(p), threads, progress)
    per_pattern = (mult.reshape(8, -1) @ _bucket_tables(p)[:, 0]).tolist()
    if per_pattern[7]:
        raise RuntimeError("matrices with an all-zero row counted as invertible")
    rows = tuple(
        CaseCensusRow(key[0], key[1], per_pattern[r]) for r, key in enumerate(_PATTERN_KEYS)
    )
    return CaseCensus(p, rows)
