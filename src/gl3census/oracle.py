"""Exhaustive, exact censuses of GL3(Z/n) by permanent value.

Two engines produce the same table. census_naive evaluates all n^9 matrices
by cofactor expansion, sweeping every first row against chunks of (row 2,
row 3) prefixes through matrices.perm_det; it keeps no symmetry, is the dumb,
trustworthy reference and refuses n > 8. census_tiered works on prefixes
(the first two rows): for a fixed prefix, both the permanent and the
determinant are linear forms in the third row, and the joint distribution of
the two forms depends only on the subgroup of (Z/n)^2 generated by their three
coefficient columns. Each subgroup is keyed by the Hermite normal form of its
lattice between nZ^2 and Z^2, and the third-row counts are computed once per
subgroup, either by a direct n^3 inner loop (generic, any modulus) or by an
analytic solve-for-one-variable fast path (prime modulus). The two inner paths
are cross-validated in the test suite, and the two engines agree entry for
entry wherever both run.

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

import numpy as np

from .closed_form import CaseCensusRow
from .matrices import CLASS_LABELS, ClassLabel, forms, perm_det, perm_det2, subperms
from .modring import Modulus, factorize, is_prime

NAIVE_LIMIT = 8
TIERED_LIMIT = 16
TWO_BY_TWO_LIMIT = 50

_CHUNK = 1 << 20  # matrices, or orbit pairs, per job
_BLOCK = 1 << 16  # orbit pairs per vectorized block; bounds the pass's memory
_LEFTOVER_BLOCK = 512  # class leftover prefixes per block; (512, n^3) arrays bound its memory


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


def _digits(idx, n: int, k: int) -> list[np.ndarray]:
    """The k base-n digits (least significant first) of idx, a range or an index array.

    A range is enumerated in int32 whenever its stop allows: its users (the
    naive sweep's prefixes and first rows, the 2x2 scan, the third-row loop,
    the row-orbit enumerator) form products of two residues, far below 2^31. An
    array keeps its dtype. The orbit pass takes its rows from the orbit reps.
    """
    if isinstance(idx, range):
        idx = np.arange(idx.start, idx.stop, dtype=np.int32 if idx.stop < 2**31 else np.int64)
    out = []
    for _ in range(k):
        out.append(idx % n)
        idx = idx // n
    return out


def _map_jobs(fn, jobs, threads, progress):
    """Run (args, size) jobs, inline or on a process pool, yielding results in job order.

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
        done = 0
        for (_, size), res in zip(jobs, results):
            done += size
            if progress is not None:
                progress(done, total)
            yield res


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
    reps: tuple[tuple[int, int, int, int, int, int], ...]  # one form signature per subgroup
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
    """Every subgroup of (Z/n)^2 as an HNF triple, with a generating form signature.

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
        reps=tuple((b, a % n, 0, d % n, 0, 0) for a, b, d in triples),
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


def _third_row_counts_generic(
    sig: tuple[int, int, int, int, int, int], n: int, unit_mask: np.ndarray | None = None
) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows, by enumerating all n^3."""
    A, B, C, D, E, F = sig
    x, y, z = _digits(range(n**3), n, 3)
    perm = (A * x + B * y + C * z) % n
    det = (D * x + E * y + F * z) % n
    if unit_mask is None:
        unit_mask = _unit_mask(n)
    return np.bincount(perm[unit_mask[det]], minlength=n).astype(np.int64)


def _third_row_counts_prime(sig: tuple[int, int, int, int, int, int], p: int) -> np.ndarray:
    """Analytic third-row counts for a prime modulus.

    Solve the permanent congruence for the first variable with a unit
    coefficient; the determinant then reduces to an affine form in the two
    free variables. Prefixes with no unit permanent coefficient have constant
    permanent and only the determinant form matters.
    """
    A, B, C, D, E, F = (v % p for v in sig)
    out = np.zeros(p, dtype=np.int64)
    pairs = [(A, D), (B, E), (C, F)]
    pivot = next((i for i, (pc, _) in enumerate(pairs) if pc), None)
    if pivot is None:
        if D or E or F:
            out[0] = p**3 - p**2
        return out
    pc, dc = pairs.pop(pivot)
    inv = pow(pc, -1, p)
    residual = [(dj - dc * inv * pj) % p for pj, dj in pairs]
    if any(residual):
        out[:] = p * (p - 1)
    elif dc:
        out[1:] = p * p
    return out


def _bucket_tables(n: int) -> np.ndarray:
    """Stack of third-row count vectors, one per form bucket."""
    t = _form_tables(n)
    if is_prime(n):
        rows = [_third_row_counts_prime(rep, n) for rep in t.reps]
    else:
        um = _unit_mask(n)
        rows = [_third_row_counts_generic(rep, n, um) for rep in t.reps]
    return np.stack(rows)


# ---------------------------------------------------------------------------
# the orbit-pair prefix pass
#
# Scaling a prefix row by a unit scales all six forms by that unit, which
# keeps the subgroup, whether P11, P12 or P13 is a unit, and the zero pattern.
# Each prefix engine therefore tallies one representative pair of row orbits
# with weight |orbit 1| * |orbit 2|. Tallies are counted per weight class and
# multiplied by the exact int64 weights at the end of each block.


@dataclass(frozen=True, eq=False)
class _RowOrbits:
    """Orbits of (Z/n)^3 under scaling by units.

    Row index r0 + r1 n + r2 n^2. reps holds the least member of each orbit
    as three digit arrays, sizes each orbit's size, and
    members[offsets[i]:offsets[i + 1]] the row indices of orbit i in
    increasing order. wvals are the distinct sizes; wclass[i] indexes sizes[i]
    in wvals.
    """

    reps: tuple[np.ndarray, np.ndarray, np.ndarray]
    sizes: np.ndarray
    members: np.ndarray
    offsets: np.ndarray
    wvals: np.ndarray
    wclass: np.ndarray


@lru_cache(maxsize=None)
def _row_orbits(n: int) -> _RowOrbits:
    rows = _digits(range(n**3), n, 3)
    least = None
    for u in np.flatnonzero(_unit_mask(n)):
        image = (u * rows[0]) % n + (u * rows[1]) % n * n + (u * rows[2]) % n * (n * n)
        least = image if least is None else np.minimum(least, image)
    rep_idx, orbit_of, sizes = np.unique(least, return_inverse=True, return_counts=True)
    wvals, wclass = np.unique(sizes, return_inverse=True)
    return _RowOrbits(
        reps=tuple(v.astype(np.int64) for v in _digits(rep_idx, n, 3)),
        sizes=sizes.astype(np.int64),
        members=np.argsort(orbit_of, kind="stable"),
        offsets=np.concatenate(([0], np.cumsum(sizes))),
        wvals=wvals.astype(np.int64),
        wclass=wclass.astype(np.int64),
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
    """Blocks of orbit pairs (i, j), i0 <= i < i1, as (rows, forms, buckets, weight classes).

    rows is the slice of first-row orbits in the block; the arrays are shaped
    (first-row orbits, all second-row orbits).
    """
    o = _row_orbits(n)
    t = _form_tables(n)
    m = len(o.sizes)
    nw = len(o.wvals)
    r2 = [v[None, :] for v in o.reps]
    step = max(1, _BLOCK // m)
    for s in range(i0, i1, step):
        rows = slice(s, min(s + step, i1))
        coeffs = forms([v[rows, None] for v in o.reps], r2, n)
        wclass = o.wclass[rows, None] * nw + o.wclass[None, :]
        yield rows, coeffs, _hnf_buckets(t, coeffs), wclass


def _weighted_tally(o: _RowOrbits, key, wclass, n_keys: int) -> np.ndarray:
    """Prefixes per key: orbit pairs counted per (key, weight class), times exact weights."""
    nw2 = len(o.wvals) ** 2
    pairs = np.bincount((key * nw2 + wclass).ravel(), minlength=n_keys * nw2)
    return pairs.reshape(n_keys, nw2) @ np.outer(o.wvals, o.wvals).ravel()


def _pair_prefixes(o: _RowOrbits, i: np.ndarray, j: np.ndarray, n: int) -> np.ndarray:
    """Every prefix index in the orbit pairs (i, j): a member of orbit i, plus n^3 times one of j."""
    sj = o.sizes[j]
    counts = o.sizes[i] * sj
    pair = np.repeat(np.arange(i.size), counts)
    q = np.arange(int(counts.sum())) - np.repeat(np.cumsum(counts) - counts, counts)
    first = o.members[o.offsets[i][pair] + q // sj[pair]]
    second = o.members[o.offsets[j][pair] + q % sj[pair]]
    return first + n**3 * second


# ---------------------------------------------------------------------------
# censuses


def _tiered_job(args):
    n, i0, i1 = args
    o = _row_orbits(n)
    n_subs = len(_form_tables(n).sizes)
    mult = np.zeros(n_subs, dtype=np.int64)
    for _, _, s, wclass in _orbit_blocks(n, i0, i1):
        mult += _weighted_tally(o, s, wclass, n_subs)
    return mult


def census_tiered(
    n: int | Modulus, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT
) -> CountTable:
    """Exact permanent census over GL3(Z/n) via orbit-pair bucketing; n <= 16 by default."""
    modulus = factorize(n) if isinstance(n, int) else n
    n = modulus.n
    if n > limit:
        raise CensusTooLarge("census_tiered", n, limit)
    t = _form_tables(n)
    mult = np.zeros(len(t.sizes), dtype=np.int64)
    for res in _map_jobs(_tiered_job, _orbit_jobs(n), threads, progress):
        mult += res
    counts = mult @ _bucket_tables(n)  # entries bounded by n^9 < 2^63
    return CountTable(modulus, tuple(int(v) for v in counts))


def _scan_census(job, modulus: Modulus, count: int, per_index: int, threads, progress):
    """Add up job(n, start, stop) over chunks of [0, count); each index is per_index matrices."""
    n = modulus.n
    step = max(1, _CHUNK // per_index)
    bounds = [(s, min(s + step, count)) for s in range(0, count, step)]
    jobs = [((n, a, b), (b - a) * per_index) for a, b in bounds]
    counts = np.zeros(n, dtype=np.int64)
    for res in _map_jobs(job, jobs, threads, progress):
        counts += res
    return CountTable(modulus, tuple(int(v) for v in counts))


def _naive_job(args):
    """Every first row against the (row 2, row 3) prefixes start..stop-1."""
    n, start, stop = args
    first = _digits(range(n**3), n, 3)
    prefixes = [v[:, None] for v in _digits(range(start, stop), n, 6)]
    perm, det = perm_det([*first, *prefixes], n)
    return np.bincount(perm[_unit_mask(n)[det]], minlength=n)


def census_naive(
    n: int | Modulus, *, threads: int = 1, progress=None, limit: int = NAIVE_LIMIT
) -> CountTable:
    """Exact permanent census by evaluating all n^9 matrices; n <= 8 by default."""
    modulus = factorize(n) if isinstance(n, int) else n
    n = modulus.n
    if n > limit:
        raise CensusTooLarge("census_naive", n, limit, hint="use census_tiered")
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
# C and the row-1 cofactors are D, E, F. Prefixes whose P11, P12, P13 are all
# divisible by p are rare; their orbit pairs are expanded back into prefixes
# and scanned exhaustively, deciding classes by P21 and then P22.


def _class_job(args):
    n, i0, i1, p = args
    o = _row_orbits(n)
    n_subs = len(_form_tables(n).sizes)
    mult = np.zeros(3 * n_subs, dtype=np.int64)
    plain = [np.zeros(0, dtype=np.int64)]
    for rows, (p11, p12, p13, *_), s, wclass in _orbit_blocks(n, i0, i1):
        u1 = p11 % p != 0
        u2 = p12 % p != 0
        u3 = p13 % p != 0
        headed = u1 | u2 | u3
        lab = np.where(u1, 0, np.where(u2, 1, 2))
        mult += _weighted_tally(o, (lab * n_subs + s)[headed], wclass[headed], 3 * n_subs)
        i, j = np.nonzero(~headed)
        plain.append(_pair_prefixes(o, i + rows.start, j, n))
    return mult, np.concatenate(plain)


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
    if n > limit:
        raise CensusTooLarge("class_census", n, limit)
    t = _form_tables(n)
    n_subs = len(t.sizes)
    mult = np.zeros(3 * n_subs, dtype=np.int64)
    plain_blocks = []
    for res, plain in _map_jobs(_class_job, _orbit_jobs(n, p), threads, progress):
        mult += res
        plain_blocks.append(plain)

    counts = np.zeros((n, 5), dtype=np.int64)
    tables = _bucket_tables(n)
    for j in range(3):
        counts[:, j] = mult[j * n_subs : (j + 1) * n_subs] @ tables

    violations = 0
    first = _digits(range(n**3), n, 3)
    plain = np.sort(np.concatenate(plain_blocks))
    for start in range(0, plain.size, _LEFTOVER_BLOCK):
        violations += _leftover_block(plain[start : start + _LEFTOVER_BLOCK], first, p, counts)
    return counts, violations


def _leftover_block(idx, first, p: int, counts: np.ndarray) -> int:
    """Add the C21 and C22 tallies of the prefixes idx to counts; return the violations.

    A function, so that each block's (prefixes x n^3) arrays are freed before
    the next block allocates its own.
    """
    n = len(counts)
    e = [*first, *(v[:, None] for v in _digits(idx, n, 6))]
    perm, det = perm_det(e, n)
    _, _, _, p21, p22 = subperms(e, n)
    ok = _unit_mask(n)[det]
    is21 = p21 % p != 0
    is22 = p22 % p != 0
    counts[:, 3] += np.bincount(perm[ok & is21], minlength=n)
    counts[:, 4] += np.bincount(perm[ok & ~is21 & is22], minlength=n)
    return int((ok & ~is21 & ~is22).sum())


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
    for rows, _, s, wclass in _orbit_blocks(n, i0, i1):
        pattern = _PATTERN_OF[nnz[rows, None], nnz[None, :]]
        mult += _weighted_tally(o, pattern * n_subs + s, wclass, 8 * n_subs)
    return mult


def case_census(
    p: int, *, threads: int = 1, progress=None, limit: int = TIERED_LIMIT
) -> CaseCensus:
    """Zero-permanent census over GL3(Z/p) split by the seven zero-pattern rows."""
    if not is_prime(p) or p == 2:
        raise ValueError(f"case census needs an odd prime, got {p}")
    if p > limit:
        raise CensusTooLarge("case_census", p, limit)
    t = _form_tables(p)
    n_subs = len(t.sizes)
    mult = np.zeros(8 * n_subs, dtype=np.int64)
    for res in _map_jobs(_case_job, _orbit_jobs(p), threads, progress):
        mult += res
    zeros = _bucket_tables(p)[:, 0]
    per_pattern = [int(mult[r * n_subs : (r + 1) * n_subs] @ zeros) for r in range(8)]
    if per_pattern[7]:
        raise RuntimeError("matrices with an all-zero row counted as invertible")
    rows = tuple(
        CaseCensusRow(key[0], key[1], per_pattern[r]) for r, key in enumerate(_PATTERN_KEYS)
    )
    return CaseCensus(p, rows)
