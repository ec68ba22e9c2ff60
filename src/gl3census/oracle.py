"""Exhaustive, exact censuses of GL3(Z/n) by permanent value.

Two engines produce the same table. census_naive covers all n^9 matrices
by cofactor expansion along the first row: once per census it keys every
(row 2, row 3) prefix by its three coefficient columns and tabulates what
each first-row entry adds, under each column, to a matrix's unreduced
(perm, det) index. A matrix's index depends on its prefix only through that
key, and few keys are live (6,584 of the 262,144 prefixes at n = 8). So the
census counts the prefixes per key and tallies each live key's n^2
first-two-entry terms once, weighted by its count, by z-column key (one
lookup, one add and one weighted tally per block); it adds the n
third-entry terms to that tally once per z-column key, by the distributive
law over z, then reduces it mod n. Every matrix is covered exactly once,
through its prefix's count, and no symmetry is used: it is the dumb,
trustworthy reference and refuses n > 8.
census_tiered works on prefixes (the first two
rows): for a fixed prefix, both the permanent and the determinant are linear
forms in the third row, and the joint distribution of the two forms depends
only on the subgroup H of (Z/n)^2 generated by their three coefficient
columns. The forms map the n^3 third rows onto H with every fiber of size
n^3/|H|, so a prefix's third-row counts are the first coordinates of the
elements of H whose second coordinate is a unit, and they depend on three
gcds with n alone: of the determinant's coefficients, of the columns' 2x2
minors and of the permanent's coefficients. A closed form in the three gives
each bucket's counts. By the Chinese remainder theorem GL3(Z/n) is the
product of the GL3(Z/p^k) over the prime powers p^k || n, and a matrix's
permanent mod n is its permanents mod each p^k, so census_tiered(n) at x is
the product of the censuses at p^k read at x mod p^k: keys, tables and
bucket rows exist only per prime power. The two engines agree entry for
entry wherever both run, and census_naive, which uses no Chinese remainder
theorem, checks that product at n = 6.

The coefficients are bilinear in the two prefix rows, so scaling either row by
a unit leaves the gcds alone; so does scaling a column of both rows by a unit,
and permuting the columns keeps each bucket's third-row counts. A prefix's
part of each gcd at p^k || n depends only on its rows mod p^k. So the prefix
pass never pairs rows mod n: at each prime power it pairs the first row's
sorted triple of valuations at p (its orbit under those column maps) with the
second row's orbits under unit scaling, built from their normal form, and
keeps only the summed orbit sizes per exponent triple and local key: one small
table per prime power, built once per process. The census at p^k weighs each
live exponent triple by its first-row orbit's size (orbit counting, as in
Burnside's lemma) and contracts those weights with the table times the bucket
rows, and census_tiered(n) multiplies the censuses at its prime powers: no
pair of rows mod n, no key mod n and no array sized by the divisors of a
composite n is formed. A row with every entry divisible by some p | n has no
invertible completion, and its prefixes all get a dead key. class_census and
case_census read the same weights, table and bucket rows at p^k and at p, by
the units among P11, P12, P13 and by the second row's zero count. class_census, whose class head a column permutation
reorders, counts its labels over the six column orderings, and reads each pair
a second time as rows 3 and 1 for the left-over classes, expanded along row 2
over the rows that keep P11, P12, P13 divisible by p: the image of a lattice
map whose forms read the same keys and bucket rows. That second read walks the
pairs at p^k again, as no other census reads it.

census_2x2 counts GL2(Z/n) from the products s = ad and t = bc mod n: the
permanent s + t and the determinant s - t of (a, b; c, d) depend on the
matrix only through them, and the two products share no entry. So it counts
the pairs (a, d) per product once and adds ways[s] ways[t] at s + t wherever
s - t is a unit, by the distributive law census_naive uses for its third
entry's term: every matrix is counted once and no symmetry is used.

Every engine runs on the calling thread. threads is checked and kept for
callers that pass one count to every engine, but nothing splits. The naive
census's blocks run in key order, 13 at n = 7 and 7 at 8. When it still
split its prefixes into jobs of an np.bincount per block, which holds the
interpreter lock (numpy 2.4.6), a pool lost to the calling thread at every
n <= 8, and its workers' malloc arenas kept their tallies after the jobs
ended. The orbit censuses' largest pair walk, the
table at 64, is 200,704 pairs, less than one _CHUNK job, and census_2x2
forms n^2 products. verify.run_suite runs its checks one after another, so
their working sets are never in memory at once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

from .closed_form import CaseCensusRow
from .matrices import CLASS_LABELS, ClassLabel, forms, mod, perm_det2
from .modring import Modulus, factorize, is_prime

# A 3x3 census counts at most n^9 matrices in int64 tallies (bincounts and the
# orbit censuses' contractions with _bucket_rows); 127^9 < 2^63 <= 128^9. Keys
# exist only per prime power: the census at q = p^k counts at most q^9
# matrices, every partial sum of its nonnegative terms included, and
# census_tiered(n) is the product of the censuses at its prime powers, every
# partial product at most prod q^9 = n^9. The class census's tallies are prefix
# weights counted once per column ordering, at most 6 n^6 per half until
# _class_scan divides them by 6; its left-over contraction counts rows t, each
# matrix p^2 times, at most n^9 before the division by p^2.
INT64_CEILING = 127
# Matrices a brute-force scan may cover: 8^9 = 2^27, so the naive reference
# still reaches n = 8 (n^9 matrices, each covered once, though it lists the
# first two entries' terms once per live prefix key and adds its third
# entry's term per z-column key rather than per matrix), census_2x2 n = 107
# (charged the n^4 matrices it covers, though it forms only n^2 products of
# two entries), fiber_count 2^4, 3^2, 5^2 and 7^2 but not 3^3 (p^(9(k - 1))
# lifts), and verify.shift_round_trip's population scan, charged n^8, n = 10.
SCAN_BUDGET = 1 << 27

_CHUNK = 1 << 20  # matrices per fiber_count job; zero_perm_members sizes its blocks by it
# array elements per vectorized block of the table builds and of the naive
# census's grouped indexes; the naive census forms and counts its prefix keys
# in slices of _BLOCK, and the shift population's one-byte batches take 4 _BLOCK
# (head) and 2 _BLOCK (left-over) members. Bounds the memory of each such
# step: its temporaries hold a few _BLOCK elements, whatever n and the chunk
# size.
_BLOCK = 1 << 16
# int8, then twice the bits per type: _int_type indexes this by bit width
_INT_TYPES = (np.int8, np.int16, np.int32, np.int64)


class CensusTooLarge(ValueError):
    """Raised when a census is asked to enumerate beyond its size bound."""


def _at_most(p: int, e: int, bound: int) -> bool:
    """Whether p^e <= bound, without forming p^e for a huge e: p >= 2 needs 2^e <= bound."""
    return p < 2 or e < 1 or (e < bound.bit_length() and p**e <= bound)


def _check_bound(engine: str, p: int, k: int = 1, scan: int = 0) -> None:
    """Raise CensusTooLarge unless n = p^k <= INT64_CEILING and p^scan <= SCAN_BUDGET.

    p^scan is the number of matrices the engine scans, each covered without
    symmetry, and scan = 0 for the orbit engines. Engines call this before
    any other work, factorizing and primality tests included. A p below 2
    or a k below 1 passes, for the engine's own checks to refuse.
    """
    n, var = (f"{p}^{k}", "p") if k > 1 else (f"{p}", "n")
    if not _at_most(p, k, INT64_CEILING):
        raise CensusTooLarge(f"{engine} refuses n = {n}: bound is n <= {INT64_CEILING}")
    if not _at_most(p, scan, SCAN_BUDGET):
        root = next(r for r in itertools.count(1) if (r + 1) ** scan > SCAN_BUDGET)
        rule = f"{var}^{scan} <= {SCAN_BUDGET} scanned matrices"
        raise CensusTooLarge(f"{engine} refuses n = {n}: bound is {var} <= {root}, for {rule}")


def _modulus(engine: str, n: int | Modulus, scan: int = 0) -> Modulus:
    """n as a Modulus, factorized only once _check_bound has passed it."""
    _check_bound(engine, n if isinstance(n, int) else n.n, 1, scan)
    return factorize(n) if isinstance(n, int) else n


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


def _valuations(p: int, k: int) -> np.ndarray:
    """val[v] = the largest t <= k with p^t | v, for 0 <= v < p^k; val[0] = k.

    Units scale a residue onto exactly the residues of its valuation, so
    the values of val are the unit orbits mod p^k: phi(p^(k - g)) residues
    at g < k, and 0 alone at g = k.
    """
    val = np.zeros(p**k, dtype=_int_type(k))
    for t in range(1, k + 1):
        val[:: p**t] = t
    return val


def _inverse_table(n: int) -> np.ndarray:
    """inverse[v] = v^-1 mod n for units v, 0 elsewhere, in _kernel_type(n): the kernel multiplies it."""
    return np.array([pow(v, -1, n) if gcd(v, n) == 1 else 0 for v in range(n)], dtype=_kernel_type(n))


def _int_type(bound: int) -> type[np.signedinteger]:
    """The narrowest signed numpy integer type that holds every value in [-bound, bound], bound >= 0.

    Callers pass the largest intermediate their arithmetic reaches. A type
    of 8 * 2^i bits holds magnitudes of 8 * 2^i - 1 bits, so the index i is
    the bit length of bound's bit length over 8. Raises OverflowError past
    int64.
    """
    i = (int(bound).bit_length() >> 3).bit_length()
    if i >= len(_INT_TYPES):
        raise OverflowError(f"no numpy integer type holds {bound}")
    return _INT_TYPES[i]


def _kernel_type(n: int) -> type[np.signedinteger]:
    """The narrowest type for the kernel's arithmetic on residues mod n.

    matrices.forms, perm_det and perm_det_subperms on entries in [0, n)
    stay within 3 (n - 1)^2 in magnitude, so int8 serves n <= 7 and int16
    n <= 105. numpy wraps integer arrays silently on overflow, so this bound
    is the only guard.
    """
    return _int_type(3 * (n - 1) ** 2)


def _digits(idx: range, n: int, k: int) -> list[np.ndarray]:
    """The k base-n digits (least significant first) of every index in the range idx.

    The range is enumerated in the wider of _int_type(stop), which holds
    every index and so every digit, and _kernel_type(n), which holds the
    kernel's arithmetic on the digits as residues mod n. Callers that
    compute more with the digits bound that arithmetic themselves. Each
    digit is the index less n times its quotient, as in matrices.mod: one
    floor division per digit, which numpy runs with SIMD, and no remainder.
    """
    idx = np.arange(idx.start, idx.stop, dtype=np.promote_types(_int_type(idx.stop), _kernel_type(n)))
    out = []
    for _ in range(k):
        q = idx // n
        out.append(idx - q * n)  # q n <= idx: nothing wraps
        idx = q
    return out


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")


def _range_jobs(count: int, per_index: int, *head) -> list[tuple[tuple, int]]:
    """Jobs (*head, start, stop) over chunks of [0, count), as (job args, matrices covered).

    Each index stands for per_index matrices, and a chunk spans at most
    _CHUNK of them (at least one index). Its one caller is
    structure_maps.fiber_count, over its p^(9(k - 1)) lifts.
    """
    step = max(1, _CHUNK // per_index)
    bounds = [(s, min(s + step, count)) for s in range(0, count, step)]
    return [((*head, a, b), (b - a) * per_index) for a, b in bounds]


def _sum_jobs(fn, jobs, progress):
    """Sum fn(args) over one or more (args, size) jobs, on the calling thread and in job order.

    The sum starts from the first job's result and adds the others into it
    in place, so jobs return numbers or fresh arrays that nothing else holds.
    progress(done, total) reports the summed sizes of the jobs finished. An
    exception from a job or from progress reaches the caller as it was
    raised, and no later job starts. Its one caller is
    structure_maps.fiber_count.
    """
    total, done, out = sum(size for _, size in jobs), 0, None
    for args, size in jobs:
        res = fn(args)
        if out is None:
            out = res
        else:
            out += res
        done += size
        if progress is not None:
            progress(done, total)
    return out


# ---------------------------------------------------------------------------
# linear-form buckets: keyed by three gcds, read per prime power
#
# A prefix's forms perm = A x + B y + C z and det = D x + E y + F z map the n^3
# third rows onto the subgroup H of (Z/n)^2 spanned by the columns (A, D),
# (B, E), (C, F), each element n^3 / |H| times. A bucket's row counts the first
# coordinates of the elements of H whose second coordinate is a unit, and it
# depends on three gcds with n: d of D, E, F, a of the 2x2 minors AE - BD,
# AF - CD, BF - CE, and g of A, B, C. Where d > 1 no second coordinate is a
# unit and the row is 0. Where d = 1 the lattice H + nZ^2 has a basis (a, 0),
# (b, 1) with g = gcd(a, b), so H holds the n^2 / a elements (i a + j b, j),
# each the image of n a third rows. x = j b mod a for some unit j only where
# gcd(x, a) = g, and then for phi(n) / phi(a / g) units j. So the row is
# n a phi(n) / phi(a / g) at every x with gcd(x, a) = g, and 0 elsewhere
# (arXiv 2105.03602; M. Hampejs et al., "On the subgroups of the group
# Z_m x Z_n", J. Numbers, 2014).
#
# Each gcd is the product of its parts at the prime powers q = p^k || n, and so
# is the row, read at x mod q. So keys exist only per prime power: the local
# key e_a (k + 1) + e_g, the valuations of a and g at p, or the dead key
# (k + 1)^2 where p | d, whose row is 0. No key mod n is formed.


def _local_keys(coeffs, p: int, k: int, val: np.ndarray) -> np.ndarray:
    """The local keys at p^k of the forms coeffs = (A, ..., F), residues mod p^k; val = _valuations(p, k).

    val caps each valuation at k, as the gcd with n does. The minors are
    formed in the coefficients' type, which holds their (p^k - 1)^2
    magnitude when it is _kernel_type(p^k). The keys are of val's type.
    """
    q = p**k
    A, B, C, D, E, F = coeffs

    def least(*terms):
        return np.minimum.reduce([val.take(v) for v in terms])

    e_a = least(mod(A * E - B * D, q), mod(A * F - C * D, q), mod(B * F - C * E, q))
    return np.where(least(D, E, F) > 0, (k + 1) ** 2, e_a * (k + 1) + least(A, B, C))


@lru_cache(maxsize=None)
def _bucket_rows(p: int, k: int) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows mod q = p^k, one row per local key.

    ((k + 1)^2 + 1, q) int64, read-only and kept for the process, as the
    tables are. The dead key, and a key with e_g > e_a, have the row 0.
    Every other key names a = p^e_a and g = p^e_g, and its row is the closed
    form above at q: q a phi(q) / phi(a / g) where gcd(x, a) = g, that is
    where the valuation of x, capped at e_a, is e_g.
    """
    q, val = p**k, _valuations(p, k)
    e_a, e_g = np.divmod(np.arange((k + 1) ** 2), k + 1)
    phi = np.bincount(val, minlength=k + 1)[::-1]  # phi(p^j) at j: the residues of valuation k - j
    rows = np.zeros(((k + 1) ** 2 + 1, q), dtype=np.int64)
    value = q * p**e_a * phi[k] // phi[np.maximum(e_a - e_g, 0)]
    np.copyto(rows[:-1], value[:, None], where=np.minimum(val, e_a[:, None]) == e_g[:, None])
    rows.flags.writeable = False
    return rows


# ---------------------------------------------------------------------------
# the prefix pass: one table per prime power
#
# Scaling a prefix row by a unit scales all six forms by that unit, which
# keeps the key, whether P11, P12 or P13 is a unit, and the zero pattern.
# For a column permutation P and a unit diagonal D, perm(M P D) = perm(M) prod
# d_i and det(M P D) = +-det(M) prod d_i: the forms' coefficient columns are
# scaled by units (same key) or permuted with the determinant coordinate at
# most negated (same key and third-row counts). So the second row needs only
# its unit-scaling orbits, built from their normal form (see
# _prime_power_row_orbits), each weighted by its size (orbit counting, as in
# Burnside's lemma), and the first row only its orbit under unit column
# scaling and column permutation, which mod p^k is the sorted triple
# e1 <= e2 <= e3 of its entries' valuations at p: the row (p^e1, p^e2, p^e3).
#
# The census at p^k weighs each live exponent triple by the size of its
# first-row orbit (_divisor_rows) and contracts those weights with the table,
# summed over u and z, times the bucket rows. By the Chinese remainder theorem
# a matrix mod n is any matrix mod each p^k || n, and its permanent and
# determinant mod n are theirs mod each p^k, so census_tiered(n) at x is the
# product over p^k || n of the census at p^k read at x mod p^k. The int64
# bound is at INT64_CEILING. Two checks confirm that product without the
# Chinese remainder theorem: census_naive at n = 6 (verify's engine agreement),
# and the gcd-key reference of the tests at every n <= 24 and at 30.
#
# A row is dead at p when p divides all three of its entries, so e1 > 0 for a
# first row. The forms are bilinear, so a prefix with a row dead at p has all
# six coefficients divisible by p: its local key at p is the dead key, and no
# third row makes it invertible. The table pairs only the live exponent
# triples, those with e1 = 0, with the live orbits, and adds the dead orbits'
# sizes at the dead key; the dead first-row triples weigh nothing in a census.


@lru_cache(maxsize=None)
def _sorted_triples(m: int) -> np.ndarray:
    """The triples i1 <= i2 <= i3 in [0, m) as a read-only (3, C(m + 2, 3)) int64 array, in lexicographic order."""
    i = np.indices((m,) * 3).reshape(3, -1)
    i = i[:, (i[0] <= i[1]) & (i[1] <= i[2])]
    i.flags.writeable = False
    return i


def _live_triples(k: int) -> np.ndarray:
    """The live sorted exponent triples at p^k, (3, C(k + 2, 2)): those with e1 = 0, which come first."""
    return _sorted_triples(k + 1)[:, : (k + 1) * (k + 2) // 2]


def _prime_power_row_orbits(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal forms of the unit-scaling orbits of (Z/p^k)^3, as (3, orbits) int64 reps and sizes.

    A nonzero row is p^v r' with v < k and r' mod p^(k - v) not divisible by
    p. Let c be the first position where r' holds a unit; scaling by its
    inverse sets it to 1, leaves multiples of p before c and anything mod
    p^(k - v) after it. Only units that are 1 mod p^(k - v) fix r', so the
    orbit has phi(p^(k - v)) rows. The zero row is an orbit of its own. An
    orbit is live, its rows not all divisible by p, where v = 0.

    The zero row comes first, then one block per (v, c), v outer, each in C
    order: with m = p^(k - v), the block's two free entries are a high
    digit, of radix m / p before c and m after it, and a low digit, of
    radix m / p at c = 2 and m otherwise. All blocks are decoded from one
    flat index.
    """
    v, c = np.divmod(np.arange(3 * k), 3)
    m = p ** (k - v)
    low = np.where(c < 2, m, m // p)
    count = np.where(c < 1, m, m // p) * low
    block = np.repeat(np.arange(3 * k), count)
    hi, lo = np.divmod(np.arange(block.size) - np.repeat(np.cumsum(count) - count, count), low[block])
    c = c[block]
    reps = np.ones((3, 1 + block.size), dtype=np.int64)
    reps[:, 0] = 0
    # the pivot c holds 1; before it the digits step by p
    reps[0, 1:] = np.where(c == 0, 1, p * hi)
    reps[1, 1:] = np.choose(c, (hi, 1, p * lo))
    reps[2, 1:] = np.where(c == 2, 1, lo)
    reps[:, 1:] *= (p**v)[block]
    return reps, np.concatenate([[1], np.repeat(m - m // p, count)])


def _divisor_rows(p: int, k: int) -> np.ndarray:
    """Sizes of the orbits of the rows (Z/p^k)^3 under unit column scaling and column permutation, int64.

    An orbit is the sorted triple e1 <= e2 <= e3 of its entries' valuations
    at p, the row (p^e1, p^e2, p^e3), one per column of _sorted_triples(k +
    1) and in its order, so the live triples (e1 = 0) come first. Units scale
    a residue onto exactly the residues of its valuation (_valuations), so an
    orbit has the product of those residue counts rows times the number of
    distinct orderings of the triple (the multinomial coefficient).
    """
    e = _sorted_triples(k + 1)
    per_valuation = np.bincount(_valuations(p, k), minlength=k + 1)
    # 1, 3 or 6 orderings for 1, 2 or 3 distinct valuations
    return per_valuation[e].prod(axis=0) * np.array([1, 3, 6])[(e[1:] != e[:2]).sum(axis=0)]


def _pair_blocks(p: int, k: int, r2):
    """Blocks of the pairs of the live exponent triples at p^k with the rows r2, as (triples, forms).

    r2 holds three (1, m) arrays of _kernel_type(p^k). A block's triples are
    the indices of its live exponent triples, shaped (t, 1), and its forms
    (A, ..., F) of the rows (p^e1, p^e2, p^e3) and r2 are shaped (t, m), with
    at most max(_BLOCK, m) elements, formed mod p^k in _kernel_type(p^k).
    """
    q = p**k
    r1 = (p ** _live_triples(k) % q).astype(_kernel_type(q))
    step = max(1, _BLOCK // r2[0].size)
    for s in range(0, r1.shape[1], step):
        yield np.arange(s, min(s + step, r1.shape[1]))[:, None], forms([v[s : s + step, None] for v in r1], r2, q)


@lru_cache(maxsize=None)
def _prime_power_table(p: int, k: int) -> np.ndarray:
    """The summed orbit sizes at p^k per (live exponent triple e, u, z, local key), int64.

    Over every unit-scaling orbit of the second rows mod p^k: u counts the
    units mod p among the forms A, B, C (P11, P12, P13 with the pair as rows
    2 and 3) of the pair of (p^e1, p^e2, p^e3) with the orbit's rep, z the
    nonzero entries of that rep, and the key is the pair's local key. Each
    live pair is formed once, in _pair_blocks; a dead orbit's forms are all
    divisible by p, so it goes to u = 0 and the dead key. Each row (fixed e)
    sums to p^(3k). The table is C(k + 2, 2) x 4 x 4 x ((k + 1)^2 + 1)
    entries, read-only, 0.54 MB for all 43 p^k <= 127 together, and is kept
    for the process; no per-orbit array outlives the build.
    """
    n_keys, val = (k + 1) ** 2 + 1, _valuations(p, k)
    reps, sizes = _prime_power_row_orbits(p, k)
    live, z = (reps % p).any(axis=0), (reps != 0).sum(axis=0)
    table = np.zeros((_live_triples(k).shape[1], 4, 4, n_keys), dtype=np.int64)
    table[:, 0, :, -1] = _tally(z[~live], sizes[~live], 4)
    r2 = [v[None, live] for v in reps.astype(_kernel_type(p**k))]
    index = _int_type(table.size - 1)
    cols, weights = (z[live] * n_keys).astype(index), sizes[live]
    for rows, coeffs in _pair_blocks(p, k, r2):
        # each cell's flat index, in the narrowest type that holds them all
        cell = _local_keys(coeffs, p, k, val).astype(index) + (rows.astype(index) * (16 * n_keys) + cols)
        for v in coeffs[:3]:
            np.add(cell, 4 * n_keys, out=cell, where=mod(v, p) != 0)
        np.add.at(table.reshape(-1), cell.ravel(), np.broadcast_to(weights, cell.shape).ravel())
    table.flags.writeable = False
    return table


def _prime_power_weights(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The first-row weights of the live exponent triples at p^k and the table at p^k, both int64.

    RuntimeError unless the first-row triples (_divisor_rows), the dead ones
    included, weigh p^(3k) and each table row sums to p^(3k).
    """
    cube, sizes, table = p ** (3 * k), _divisor_rows(p, k), _prime_power_table(p, k)
    if int(sizes.sum()) != cube:
        raise RuntimeError(f"first-row triples mod {p}^{k} weigh {int(sizes.sum())}, not p^(3k) = {cube}")
    if (table.sum(axis=(1, 2, 3)) != cube).any():
        raise RuntimeError(f"a row of the table at {p}^{k} does not sum to p^(3k) = {cube}")
    return sizes[: len(table)], table


def _tally(key, weights, n_keys: int) -> np.ndarray:
    """Exact int64 sums of weights per key in [0, n_keys); key and weights share a shape."""
    out = np.zeros(n_keys, dtype=np.int64)
    np.add.at(out, np.ravel(key), np.ravel(weights))  # flat operands take add.at's fast path
    return out


# ---------------------------------------------------------------------------
# censuses


def census_tiered(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census over GL3(Z/n), the product of its censuses at each p^k || n; n <= INT64_CEILING.

    Runs inline for every threads >= 1: its only pair walks are the table
    builds, at most 200,704 pairs (at 64), less than one _CHUNK, so no job
    would split. progress(n^6, n^6) is called once the product is formed.
    """
    modulus = _modulus("census_tiered", n)
    _check_threads(threads)
    n = modulus.n
    counts = np.ones(n, dtype=np.int64)
    for p, k in modulus.factors:
        w, table = _prime_power_weights(p, k)
        # the census at p^k, read at x mod p^k
        counts *= np.tile(w @ table.sum(axis=(1, 2)) @ _bucket_rows(p, k), n // p**k)
    if progress is not None:
        progress(n**6, n**6)
    return CountTable(modulus, tuple(int(v) for v in counts))


def _prefix_keys(n: int, third: range) -> np.ndarray:
    """The keys of the prefixes whose third row is in the range third, shaped (len(third), n^3).

    Over the prefix r = i2 + n^3 i3, second row i2 and third row i3 (base-n
    digits, least significant first), with forms (A, B, C, D, E, F), the key
    is key12 n^2 + key3, with key12 = (A n + D) n^2 + (B n + E) and key3 =
    C n + F: the six forms (A, D, B, E, C, F) as one base-n number, of
    _int_type(n^6 - 1). Row i3 - third.start, column i2 holds the key of r,
    so _prefix_keys(n, range(n^3)).ravel() lists every prefix in order.
    """
    row2 = [v[None, :] for v in _digits(range(n**3), n, 3)]
    row3 = [v[:, None] for v in _digits(third, n, 3)]
    A, B, C, D, E, F = forms(row2, row3, n)
    key = A.astype(_int_type(n**6 - 1))
    for c in (D, B, E, C, F):
        key *= n
        key += c
    return key


def _naive_keys(n: int):
    """The naive census's tables (carried, T, TT), built once per census.

    carried[k], of _int_type(n^6), counts the prefixes whose key (see
    _prefix_keys) is k. The keys are formed by forms over all n^3 second
    rows against slices of at most max(1, _BLOCK // n^3) third rows, and each
    slice is counted into carried and freed before the next is formed, so
    no array of all n^6 keys is made. The matrix with first row (x, y, z) of
    a prefix with key key12 n^2 + key3 has the index perm' w + det', w =
    3n - 2, where perm' = (A x mod n) + (B y mod n) + (C z mod n) and det' is
    the same sum over D, E, F: perm and det unreduced, each below w, so the
    index is below w^2. Each entry adds its terms on its own: T[u n + v, x] =
    (u x mod n) w + (v x mod n), shaped (n^2, n), is the term of an entry x
    under the coefficient column (u, v), and TT[c1 n^2 + c2, x n + y] =
    T[c1, x] + T[c2, y], shaped (n^4, n^2), those of x and y together, so the
    index is T[key3, z] + TT[key12, x n + y]. T and TT are of
    _int_type(w^2 - 1), which holds every index and every product u x < n^2
    formed on the way.
    """
    w = 3 * n - 2
    t = _int_type(w * w - 1)
    carried = np.zeros(n**6, dtype=_int_type(n**6))
    one = carried.dtype.type(1)  # of carried's type, which keeps np.add.at on its fast path
    step = max(1, _BLOCK // n**3)
    for s in range(0, n**3, step):
        np.add.at(carried, _prefix_keys(n, range(s, min(s + step, n**3))).ravel(), one)
    x = np.arange(n, dtype=t)
    u, v = (c.astype(t)[:, None] for c in np.divmod(np.arange(n * n), n))
    T = mod(u * x, n) * w + mod(v * x, n)
    TT = (T[:, None, :, None] + T[None, :, None, :]).reshape(n**4, n * n)
    return carried, T, TT


def _naive_width(n: int) -> int:
    """W = TT.max() + 1 of _naive_keys(n): the span of the first two entries' terms.

    One entry's term is at most (n - 1) w + (n - 1) = (w^2 - 1) / 3, w = 3n - 2,
    so two entries' terms stay below W = 2 (w^2 - 1) / 3 + 1, and the third
    entry's term plus W is at most w^2.
    """
    w = 3 * n - 2
    return 2 * (w * w - 1) // 3 + 1


def _naive_block(n: int, TT: np.ndarray, keys: np.ndarray, sizes: np.ndarray, tally: np.ndarray) -> None:
    """Add the first two entries' terms of the live keys keys, sizes[i] times each, to tally by z-column key.

    Each matrix of a prefix with key k12 n^2 + k3 has the unreduced index
    T[k3, z] + TT[k12, x n + y] (see _naive_keys), and the term of z depends
    on the prefix only through its z-column key k3. So the block lists each
    key's n^2 pairs (x, y) once, as k3 W + TT[k12, x n + y] with W =
    _naive_width(n), of _int_type(n^2 W - 1), and adds each into the
    (n^2 W,) int64 tally, weighted by the number of prefixes that carry the
    key: one take, one add and one np.add.at of int64 weights, exact. The
    census then adds the n z-terms per z-column key.
    """
    width = _naive_width(n)
    key12, key3 = np.divmod(keys, n * n)
    index = TT.take(key12, axis=0).astype(_int_type(n * n * width - 1), copy=False)
    index += key3.astype(index.dtype)[:, None] * width
    np.add.at(tally, index.ravel(), np.repeat(sizes, n * n))


def _naive_joint(n: int, T: np.ndarray, tally: np.ndarray) -> np.ndarray:
    """The (w^2,) tally of unreduced indexes perm' w + det', w = 3n - 2, from the _naive_block tally.

    Adds each z-column key's row of the tally at offset T[key3, z], for each
    of the n values of z: by the distributive law over z this covers every
    first row of every prefix the tally counts, once. The highest offset
    is (w^2 - 1) / 3, so the last entry lands on w^2 - 1.
    """
    w = 3 * n - 2
    rows = tally.reshape(n * n, -1)
    span = np.arange(rows.shape[1])
    return sum(_tally(T[:, z, None] + span, rows, w * w) for z in range(n))


def census_naive(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census covering all n^9 matrices; n^9 <= SCAN_BUDGET, so n <= 8.

    Every matrix is covered exactly once, with no symmetry used: the census
    counts the prefixes per key (_naive_keys, about 1.5 MB of tables at
    n = 8), tallies each live key's first two entries' terms once, weighted
    by that count, in blocks of max(1, _BLOCK // n^2) keys (_naive_block),
    adds the third entry's terms once per z-column key (_naive_joint),
    reduces the unreduced (perm, det) tally mod n, and sums its
    unit-determinant columns. It frees the tables when it returns.

    The blocks run on the calling thread, in key order, for every threads
    >= 1 (see the module docstring). progress ticks once per block with the
    matrices of the prefixes whose keys are done, so the last tick is
    (n^9, n^9).
    """
    modulus = _modulus("census_naive", n, scan=9)
    _check_threads(threads)
    n, w = modulus.n, 3 * modulus.n - 2
    carried, T, TT = _naive_keys(n)
    live = np.flatnonzero(carried)
    sizes = carried[live].astype(np.int64)  # int64 weights keep np.add.at on its fast path
    del carried
    if sizes.sum() != n**6:
        raise RuntimeError(f"naive keys mod {n} count {sizes.sum()} prefixes, not n^6 = {n**6}")
    tally = np.zeros(n * n * _naive_width(n), dtype=np.int64)
    done, step = 0, max(1, _BLOCK // (n * n))
    for s in range(0, live.size, step):
        _naive_block(n, TT, live[s : s + step], sizes[s : s + step], tally)
        done += int(sizes[s : s + step].sum()) * n**3
        if progress is not None:
            progress(done, n**9)
    fold = mod(np.arange(w), n)
    joint = _naive_joint(n, T, tally).reshape(w, w)
    counts = _tally(fold, joint[:, _unit_mask(n).take(fold)].sum(axis=1), n)
    return CountTable(modulus, tuple(int(v) for v in counts))


def census_2x2(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census over GL2(Z/n), covering all n^4 <= SCAN_BUDGET matrices; n <= 107.

    ways[s] counts the pairs (a, d) with ad = s mod n, over all n^2 of them.
    Each pair (s, t) of products is the matrix (s, t; 1, 1) to perm_det2,
    whose permanent and determinant are those of every matrix with ad = s
    and bc = t, so where its determinant is a unit it adds ways[s] ways[t]
    at its permanent (see the module docstring). Runs on the calling thread
    for every threads >= 1, and calls progress(n^4, n^4) once the tally is
    done.
    """
    modulus = _modulus("census_2x2", n, scan=4)
    _check_threads(threads)
    n = modulus.n
    pairs = _digits(range(n * n), n, 2)  # the pairs (a, d), then the pairs (s, t)
    ways = np.bincount(mod(pairs[0] * pairs[1], n), minlength=n)
    perm, det = perm_det2((*pairs, 1, 1), n)
    counts = _tally(perm, ways[pairs[0]] * ways[pairs[1]] * _unit_mask(n).take(det), n)
    if progress is not None:
        progress(n**4, n**4)
    return CountTable(modulus, tuple(int(v) for v in counts))


# ---------------------------------------------------------------------------
# class census: each orbit pair read twice, as rows 2 and 3 and as rows 3 and 1
#
# With rows 2 and 3 as the prefix, the row-1 sub-permanents P11, P12, P13 are
# its forms A, B, C and the row-1 cofactors are D, E, F. If one of P11, P12,
# P13 is a unit mod p, the class of every matrix over the prefix is decided
# (C11, C12 or C13), and the (perm, det) pair is two linear forms in row 1.
#
# The other matrices, with none of P11, P12, P13 a unit, are left over, and
# the same pairs count them, read a second time: the first-row triple f as
# row 3, the unit-scaling orbit r as row 1 and row 2 as the inner row. The
# matrix (r, row 2, f) is a cyclic shift of (f, r, row 2), so expanded along
# row 2 its perm and det are again the forms (A, ..., F) = forms(f, r), and
# A, B, C are now P21, P22, P23, which decide C21, C22 or a violation (no
# unit among the five). Row 2 is held to the rows x with (P11, P12, P13) =
# S(f) x = 0 mod p, where S(f) has a zero diagonal and f3, f2, f1 off it.
# With u units among f's entries mod p (f is sorted, so they come first),
# those rows are x2 = x3 = 0 mod p at u = 1, and x3 = x1 + x2 = 0 mod p at
# u = 2: either way the rows L t over all n^3 rows t, each hit p^2 times,
# where L has the columns (1, s, 0), p e2 and p e3, s = -1 at u = 2 and 0 at
# u = 1. In t, perm and det are the forms (A + s B, p B, p C) and (D + s E,
# p E, p F), whose key reads the bucket rows as for any prefix; so
# contracting the left-over tallies counts every matrix p^2 times, and
# _class_scan divides by p^2 (RuntimeError if not exact). At u = 3 and odd
# p, S(f) is invertible mod p, so x = 0 mod p and the determinant is never a
# unit; at p = 2 no left-over matrix is invertible, each cofactor being
# congruent to its sub-permanent. Putting p in place of L's leading 1 at
# u = 3 makes every such key dead.
#
# f runs over the sorted divisor triples of p^k, the rows (p^e1, p^e2, p^e3)
# of the table's live exponent triples, whose sub-permanents a column
# permutation reorders. The head classes read the table summed over z, whose
# u counts the units among P11, P12, P13. An ordering s, column s_i
# moved to position i, takes a prefix (r2, r3) to (r2 s, r3 s): its P1i and
# P2i are P1,s_i and P2,s_i, and its key, permanent and whether its
# determinant is a unit are those of (r2, r3). Over all orbits of the other
# row, the pairs of a sorted triple under s add up as the ordered triple
# (g_s1, g_s2, g_s3), whose weight is the sorted triple's over its m
# orderings, and the six orderings meet each of those m ordered triples 6 / m
# times. So each pair, weighted as its sorted triple, once per ordering,
# counts every matrix six times, and _class_scan divides by 6 (RuntimeError
# if not exact). How many orderings give each label depends only on how many
# of P11, P12, P13 (or P21, P22, P23) are units, u: 2u put a unit first, u (3
# - u) one second after a non-unit, and 2 at u = 1 the only one third.
# _HEAD_ORDERINGS[u] counts those per head label C11, C12, C13, and
# _LEFTOVER_ORDERINGS[u] per C21, C22 and violation (no unit in the first two).

_HEAD_ORDERINGS = np.array([[0, 0, 0], [2, 2, 2], [4, 2, 0], [6, 0, 0]])
_LEFTOVER_ORDERINGS = np.array([[0, 0, 6], [2, 2, 2], [4, 2, 0], [6, 0, 0]])


def _leftover_weights(p: int, k: int, weights: np.ndarray, reps: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """(4, keys): the left-over read's prefix weights per (units among P21, P22, P23, key of the mapped forms).

    weights are the first-row weights of the live exponent triples, and reps
    and sizes the second-row orbits mod p^k, as _prime_power_row_orbits gives
    them. Each pair of a live triple f and a live orbit r is formed again,
    in _pair_blocks, and weighted by weights[f] |r|.
    """
    q, n_keys, val = p**k, (k + 1) ** 2 + 1, _valuations(p, k)
    live = (reps % p).any(axis=0)
    r1 = [v[None, live] for v in reps.astype(_kernel_type(q))]
    # per live exponent triple, with u units mod p, in the kernel's type: L's leading entry and s
    u = (_live_triples(k) == 0).sum(axis=0)
    lead, s = np.where(u < 3, 1, p).astype(r1[0].dtype), -(u == 2).astype(r1[0].dtype)
    out = np.zeros(4 * n_keys, dtype=np.int64)
    for rows, coeffs in _pair_blocks(p, k, r1):
        coeffs = list(coeffs)
        units = sum(mod(v, p) != 0 for v in coeffs[:3])  # among P21, P22, P23
        # the forms in t replace those in row 2 one by one; each is within
        # p (q - 1) <= q (q - 1) of 0 before mod, so the kernel's bound holds
        a, b = lead[rows], s[rows]
        for i in (0, 3):
            coeffs[i] = mod(a * coeffs[i] + b * coeffs[i + 1], q)
            coeffs[i + 1], coeffs[i + 2] = mod(p * coeffs[i + 1], q), mod(p * coeffs[i + 2], q)
        key = units * n_keys + _local_keys(coeffs, p, k, val)
        np.add.at(out, key.ravel(), (weights[rows] * sizes[live]).ravel())
    return out.reshape(4, -1)


def _class_tallies(p: int, k: int) -> np.ndarray:
    """(6, keys), six-fold: prefix weights per key of C11, C12, C13, then of C21, C22 and violations.

    The head half reads the table at p^k summed over z; the left-over half
    walks the pairs again (_leftover_weights), as no other census reads it.
    """
    w, table = _prime_power_weights(p, k)
    head = (w @ table.sum(axis=2).reshape(len(table), -1)).reshape(4, -1)
    left = _leftover_weights(p, k, w, *_prime_power_row_orbits(p, k))
    return np.vstack([_HEAD_ORDERINGS.T @ head, _LEFTOVER_ORDERINGS.T @ left])


def _class_scan(p: int, k: int, *, threads: int = 1, progress=None):
    """Shared engine for class_census and the emptiness scan; p^k <= INT64_CEILING.

    Returns (counts, violations): counts is an (n, 5) int array of per-x
    per-class tallies over GL3(Z/p^k); violations counts invertible matrices
    with no unit among the five sub-permanents (always 0 in practice). Runs
    inline for every threads >= 1, as census_tiered does: the left-over walk
    is one table's pairs, at most 200,704 (at 64). progress(n^6, n^6) is
    called once the tallies are done.
    """
    _check_bound("class_census", p, k)
    if not is_prime(p):
        raise ValueError(f"class census needs a prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    _check_threads(threads)
    n = p**k
    six_fold = _class_tallies(p, k)
    if progress is not None:
        progress(n**6, n**6)
    prefixes, rest = np.divmod(six_fold, 6)
    if rest.any():
        raise RuntimeError(f"class tallies mod {p}^{k} over six column orderings are not multiples of 6")
    counts = prefixes @ _bucket_rows(p, k)
    left, rest = np.divmod(counts[3:], p * p)
    if rest.any():
        raise RuntimeError(f"left-over class counts mod {p}^{k} are not multiples of p^2 = {p * p}")
    return np.vstack([counts[:3], left[:2]]).T, int(left[2].sum())


def class_census(p: int, k: int = 1, *, threads: int = 1, progress=None) -> ClassCensus:
    """Per-permanent, per-class census over GL3(Z/p^k); p^k <= INT64_CEILING."""
    counts, violations = _class_scan(p, k, threads=threads, progress=progress)
    if violations:
        raise RuntimeError(
            f"{violations} invertible matrices mod {p}^{k} fell outside the five classes"
        )
    return ClassCensus(p, k, tuple(tuple(int(v) for v in row) for row in counts))


# ---------------------------------------------------------------------------
# zero-pattern case census


# pattern index by (row-1 nonzeros, row-2 nonzeros); 7 = an all-zero row, which no third row completes
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


def case_census(p: int, *, threads: int = 1, progress=None) -> CaseCensus:
    """Zero-permanent census over GL3(Z/p), p <= INT64_CEILING, split by the seven zero patterns.

    Reads the table at p summed over u, one pattern per live first-row triple
    and z; runs inline for every threads >= 1, and calls progress(p^6, p^6)
    once the tally is done.
    """
    _check_bound("case_census", p)
    if not is_prime(p) or p == 2:
        raise ValueError(f"case census needs an odd prime, got {p}")
    _check_threads(threads)
    w, table = _prime_power_weights(p, 1)
    n_keys = table.shape[-1]
    # the live triples (1, 1, 1), (1, 1, 0) and (1, 0, 0) have 3, 2 and 1 nonzero entries
    pattern = _PATTERN_OF[(_live_triples(1) == 0).sum(axis=0)[:, None], np.arange(4)]
    cells = pattern[:, :, None] * n_keys + np.arange(n_keys)
    mult = _tally(cells, w[:, None, None] * table.sum(axis=1), 8 * n_keys).reshape(8, -1)
    if progress is not None:
        progress(p**6, p**6)
    # at a prime the only dead row is the zero row, so the live first rows meet
    # it at the dead key alone (pattern 7), and the other p^3 - 1 second rows
    # give the p^6 - (2 p^3 - 1) prefixes with no all-zero row
    live = p**6 - (2 * p**3 - 1)
    if mult[7, :-1].any() or int(mult[:7].sum()) != live:
        raise RuntimeError(
            f"case census mod {p} tallied {int(mult[:7].sum())} prefixes with no all-zero row, and "
            f"{int(mult[7, :-1].sum())} with a zero second row at a live key; want {live} and none"
        )
    per_pattern = (mult @ _bucket_rows(p, 1))[:, 0].tolist()
    rows = tuple(
        CaseCensusRow(key[0], key[1], per_pattern[r]) for r, key in enumerate(_PATTERN_KEYS)
    )
    return CaseCensus(p, rows)
