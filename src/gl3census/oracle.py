"""Exhaustive, exact censuses of GL3(Z/n) by permanent value.

Two engines produce the same table. census_naive covers all n^9 matrices
by cofactor expansion along the first row: once per census it keys every
(row 2, row 3) prefix by its coefficient columns and tabulates what each
first-row entry adds, under each column, to a matrix's unreduced (perm, det)
index. The third entry's term depends on the prefix only through its
z-column key, so a job tallies each prefix's n^2 first-two-entry terms
(one lookup, one add and one bincount per block) by that key, and the
census adds the n third-entry terms to the summed tally once per key, by
the distributive law over z, then reduces it mod n. Every matrix is
covered exactly once and no symmetry is used: it is the dumb, trustworthy
reference and refuses n > 8.
census_tiered works on prefixes (the first two
rows): for a fixed prefix, both the permanent and the determinant are linear
forms in the third row, and the joint distribution of the two forms depends
only on the subgroup H of (Z/n)^2 generated by their three coefficient
columns. The forms map the n^3 third rows onto H with every fiber of size
n^3/|H|, so a prefix's third-row counts are the first coordinates of the
elements of H whose second coordinate is a unit, and they depend on three
gcds with n alone: of the determinant's coefficients, of the columns' 2x2
minors and of the permanent's coefficients. A closed form in the three gives
each bucket's counts, and each gcd is the product of its parts at the prime
powers of n, so a prefix's key joins one local key per prime power, read from
one small table per prime power. The two engines agree entry for entry
wherever both run.

The coefficients are bilinear in the two prefix rows, so scaling either row by
a unit leaves the gcds alone; so does scaling a column of both rows by a unit,
and permuting the columns keeps each bucket's third-row counts. The
prefix pass therefore walks pairs of a first-row orbit under those column maps
(a sorted triple of divisors of n) and a second-row orbit under unit scaling,
each weighted by the product of its orbit sizes (orbit counting, as in
Burnside's lemma), rather than all n^6 prefixes. The second-row orbits are
built from their normal form, prime power by prime power and joined by the
Chinese remainder theorem, never by scanning the n^3 rows. A pair in which
some prime p | n divides every entry of one row has no invertible completion,
so the pass skips it. case_census shares that pass; class_census, whose class
head a column permutation reorders, walks ordered triples.

Censuses may run on several worker threads; orbit pairs (or, for the scanning
engines, index ranges) are split into fixed chunks, each thread tallies its
chunks into int64 arrays, and the merge adds them in chunk order. Results are
identical for every thread count. An orbit census hands its jobs every table
they read in one record (_OrbitTables), built before they are dispatched, and
contracts their summed tally with its bucket tables once. The tables of the
last modulus alone are kept, so that consecutive censuses at one modulus share
one build and no other modulus's tables stay in memory. Only a numpy call's
array loop runs without the interpreter lock, and every call hands the lock
over, so threads gain on large calls and lose on small ones: on a 2-vCPU host
a 262,144-element uint8 add ran 1.72 times as fast on two threads, a
2,400-element one 0.49 times, and a thread making the large calls fell from
89,800 to 28,300 calls/s beside one making the small ones. The engines
therefore keep their calls block-sized. verify.run_suite runs its checks one
after another and gives its threads to each census's jobs, so that no two
checks share the interpreter lock and their working sets are never in memory
at once.
"""

from __future__ import annotations

import itertools
import threading
from dataclasses import dataclass
from functools import lru_cache
from math import gcd, prod

import numpy as np

from .closed_form import CaseCensusRow
from .matrices import (
    CLASS_LABELS,
    ClassLabel,
    first_unit,
    forms,
    mod,
    perm_det2,
    perm_det_subperms,
)
from .modring import Modulus, factorize, is_prime

# A 3x3 census counts at most n^9 matrices in int64 tallies (bincounts and the
# orbit censuses' contraction, _OrbitTables.contract); 127^9 < 2^63 <= 128^9.
INT64_CEILING = 127
# Matrices a brute-force scan may cover: 8^9 = 2^27, so the naive reference
# still reaches n = 8 (n^9 matrices, each covered once, its third entry's
# term added per z-column key rather than per matrix), census_2x2 n = 107
# (n^4), fiber_count 2^4, 3^2, 5^2 and 7^2 but not 3^3 (p^(9(k - 1)) lifts),
# and verify.shift_round_trip's population scan, charged n^8, n = 10.
SCAN_BUDGET = 1 << 27

_CHUNK = 1 << 20  # matrices, or orbit pairs, per job
# array elements per vectorized block of the orbit pass and of the naive
# sweep's grouped indexes; the naive sweep builds its per-census keys from
# slices of _BLOCK, and the shift population's one-byte batches take 4 _BLOCK
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


def _sum_jobs(fn, jobs, threads, progress):
    """Sum fn(args) over one or more (args, size) jobs, inline or on a thread pool, adding in job order.

    The sum starts from the first job's result and adds the others into it
    in place, so jobs return numbers or fresh arrays that nothing else holds.
    progress(done, total) reports the summed sizes of the jobs finished, from
    the calling thread. The pool has at most one thread per job, and a single
    job runs inline. A job's exception reaches the caller as it was raised,
    and no later job starts once it has been raised. If
    the caller's side raises (progress, or an interrupt while waiting),
    queued jobs are cancelled and only the running ones are waited for.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    total = sum(size for _, size in jobs)
    workers = min(threads, len(jobs))
    arglist = [args for args, _ in jobs]
    failed = len(jobs)  # the first job that raised; -1 once the caller's side has
    lock = threading.Lock()
    if workers > 1:  # imported here, so that a run without a pool never loads it
        from concurrent.futures import CancelledError, ThreadPoolExecutor

    def run(i):
        nonlocal failed
        if i > failed:  # a job before the one that raised still runs: its result is read first
            raise CancelledError
        try:
            return fn(arglist[i])
        except BaseException:
            with lock:
                failed = min(failed, i)
            raise

    pool = ThreadPoolExecutor(max_workers=workers) if workers > 1 else None
    try:
        results = pool.map(run, range(len(jobs))) if pool is not None else map(fn, arglist)
        done, out = 0, None
        for (_, size), res in zip(jobs, results):
            if out is None:
                out = res
            else:
                out += res
            done += size
            if progress is not None:
                progress(done, total)
    finally:
        if pool is not None:  # after the last result nothing is left to cancel
            failed = -1
            pool.shutdown(cancel_futures=True)
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
# Each gcd is the product of its parts at the prime powers p^k || n, so a key
# is one local key per prime power, joined in mixed radix with the first prime
# power's most significant: e_a (k + 1) + e_g, the valuations of a and g at p,
# or the dead key (k + 1)^2 where p | d.


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


def _bucket_rows(n: int) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows, (keys, n) int64, one row per key mod n.

    A key with a dead local key, or with e_g > e_a at some p, has the row 0.
    Every other key names a and g, and its row is the closed form above.
    phi(n / v) is the number of residues whose gcd with n is v.
    """
    a = g = np.ones(1, dtype=np.int64)
    live = np.ones(1, dtype=bool)
    for p, k in factorize(n).factors:
        e_a, e_g = np.divmod(np.arange((k + 1) ** 2 + 1), k + 1)
        a, g = (np.multiply.outer(v, p**e).ravel() for v, e in ((a, e_a), (g, e_g)))
        live = np.logical_and.outer(live, (e_g <= e_a) & (e_a <= k)).ravel()
    a, g = np.where(live, a, 1), np.where(live, g, 1)
    phi = np.bincount(np.gcd(np.arange(n), n), minlength=n + 1)  # phi(n / v) at v | n
    hit = live[:, None] & (np.gcd(np.arange(n), a[:, None]) == g[:, None])
    return np.where(hit, (n * a * phi[1] // phi[n * g // a])[:, None], 0)


# ---------------------------------------------------------------------------
# the orbit-pair prefix pass
#
# Scaling a prefix row by a unit scales all six forms by that unit, which
# keeps the key, whether P11, P12 or P13 is a unit, and the zero pattern.
# For a column permutation P and a unit diagonal D, perm(M P D) = perm(M) prod
# d_i and det(M P D) = +-det(M) prod d_i: the forms' coefficient columns are
# scaled by units (same key) or permuted with the determinant coordinate at
# most negated (same third-row counts). (r1, r2) -> (r1 P D, r2 P D) permutes
# the prefixes, so each first row of an orbit adds up like its rep. Units scale
# a residue onto exactly the residues of its gcd g with n, so an orbit is a
# triple of gcds (g = n for a zero entry), sorted, or ordered for the class
# census (see there); the second row keeps its unit-scaling orbits, built from
# their normal form (see _row_orbits). Each engine sums the weights
# |orbit 1| * |orbit 2| of its pairs per key in int64; they add up to
# n^6 <= 127^6 < 2^43, so every sum is exact.
#
# A row is dead when some prime p | n divides all three of its entries. The
# forms are bilinear, so a prefix with a dead row has all six coefficients
# divisible by p: its determinant is never a unit, and no third row makes it
# invertible. The pass walks only live pairs; the weight of the dead ones
# still counts towards the n^6 the jobs cover.


@dataclass(frozen=True, eq=False)
class _RowOrbits:
    """Orbits of the rows (Z/n)^3 under a group of symmetries.

    reps holds one member of each orbit as three digit arrays of
    _kernel_type(n), as the prefix pass feeds them to the kernel, sizes each
    orbit's size in int64, as the weights are summed, and live whether no
    prime dividing n divides all three entries of the rep (the same holds
    for every member). The unit-scaling orbits keep their prime-power parts
    in local: per p^k || n, the (3, orbits) int64 normal forms mod p^k, of
    which the orbits are the product in C order.
    """

    reps: tuple[np.ndarray, np.ndarray, np.ndarray]
    sizes: np.ndarray
    live: np.ndarray
    local: tuple[np.ndarray, ...] = ()


def _orbits(reps: np.ndarray, sizes: np.ndarray, live: np.ndarray, n: int, local=()) -> _RowOrbits:
    """The (3, orbits) int64 reps as three digit arrays of _kernel_type(n), cast in one step."""
    return _RowOrbits(reps=tuple(reps.astype(_kernel_type(n))), sizes=sizes, live=live, local=local)


def _prime_power_row_orbits(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Normal forms of the unit-scaling orbits of (Z/p^k)^3, as (3, orbits) int64 reps and sizes.

    A nonzero row is p^v r' with v < k and r' mod p^(k - v) not divisible by
    p. Let c be the first position where r' holds a unit; scaling by its
    inverse sets it to 1, leaves multiples of p before c and anything mod
    p^(k - v) after it. Only units that are 1 mod p^(k - v) fix r', so the
    orbit has phi(p^(k - v)) rows. The zero row is an orbit of its own.

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


def _row_orbits(n: int) -> _RowOrbits:
    """Orbits under scaling by units, one normal-form rep each.

    By the Chinese remainder theorem a row mod n and a unit mod n are their
    residues mod each p^k || n, and each prime power's units act on its own
    residues. So an orbit is one prime-power orbit per p^k, its rep their CRT
    combination and its size the product of theirs; it is live when each
    prime power's rep has an entry prime to its p.
    """
    reps, sizes, m = np.zeros((3, 1), dtype=np.int64), np.ones(1, dtype=np.int64), 1
    live = np.ones(1, dtype=bool)
    parts = []
    for p, k in factorize(n).factors:
        q = p**k
        local, local_sizes = _prime_power_row_orbits(p, k)
        parts.append(local)
        # x = reps mod m and x = local mod q; both coefficients are below m q <= n
        x = reps[:, :, None] * (q * pow(q, -1, m)) + local[:, None, :] * (m * pow(m, -1, q))
        reps, m = (x % (m * q)).reshape(3, -1), m * q
        sizes = np.multiply.outer(sizes, local_sizes).ravel()
        live = np.logical_and.outer(live, (local % p).any(axis=0)).ravel()
    return _orbits(reps, sizes, live, n, tuple(parts))


def _divisor_rows(n: int, ordered: bool) -> _RowOrbits:
    """Orbits under unit column scaling, and under column permutation unless ordered.

    An orbit is the triple (g1, g2, g3) of its entries' gcds with n, and its
    rep the row (g1, g2, g3) mod n, sorted unless ordered. phi(n / g) residues
    have gcd g, so an orbit has prod phi(n / g_i) rows, times the number of
    distinct orderings (the multinomial coefficient) unless ordered.
    """
    per_gcd = np.bincount(np.gcd(np.arange(n), n), minlength=n + 1)  # phi(n / g) at g
    divisors = np.flatnonzero(per_gcd)
    i = np.indices((divisors.size,) * 3).reshape(3, -1)  # divisor positions, in product order
    if not ordered:
        i = i[:, (i[0] <= i[1]) & (i[1] <= i[2])]  # sorted, in combinations_with_replacement order
    g = divisors[i]
    sizes = per_gcd[g].prod(axis=0)
    if not ordered:  # 1, 3 or 6 orderings for 1, 2 or 3 distinct gcds
        sizes *= np.array([1, 3, 6])[(i[1:] != i[:2]).sum(axis=0)]
    return _orbits(g % n, sizes, np.gcd(np.gcd(g[0], g[1]), g[2]) == 1, n)


@dataclass(frozen=True, eq=False)
class _KeyTable:
    """One prime power's part of the keys of an orbit census's pairs.

    The pair of first-row triple i and second-row orbit j adds
    codes[rows[i] + cols[j]] to its key: its local key times the local
    key's place value. rows and cols are of _int_type(codes.size - 1).
    """

    codes: np.ndarray  # flat (exponent triples, live local orbits), of the key's type
    rows: np.ndarray  # per first-row triple: its exponent triple's offset in codes, 0 if the triple is dead
    cols: np.ndarray  # per second-row orbit: its local orbit's place among the live ones


def _key_tables(n: int, first: _RowOrbits, second: _RowOrbits) -> tuple[_KeyTable, ...]:
    """The key tables, one per p^k || n, of the census whose row orbits are first and second.

    At p^k a first-row triple (g1, g2, g3) of gcds reads as the row
    (p^e1, p^e2, p^e3), e_i the valuation of g_i at p, and a second-row
    orbit as its local orbit: its digit in the C order of second.local.
    The table holds the local keys of every pair of an exponent triple of a
    live first-row triple and a live local orbit, formed mod p^k in
    _kernel_type(p^k) in blocks of at most _BLOCK pairs.

    By the CRT a unit diagonal U maps the rep r1 of the first-row triple onto
    the row r1 U that is (p^e1, p^e2, p^e3) mod every p^k, so the pair
    (r1, r2) is keyed as (r1 U, r2), whose forms are those of (r1, r2 U^-1)
    scaled by units. r2 -> r2 U^-1 maps the unit-scaling orbits onto orbits
    of the same size, so the weights of each first-row triple over all
    second-row orbits land on the same keys as by the pairs' own forms. At a
    prime power g_i = p^e_i, and each pair is keyed by its own forms.
    """
    factors = factorize(n).factors
    counts = [r.shape[1] for r in second.local]
    orbit = np.arange(len(second.sizes))
    digits = [orbit // prod(counts[i + 1 :]) % m for i, m in enumerate(counts)]
    radices = [(k + 1) ** 2 + 1 for _, k in factors]
    key_type, place = _int_type(prod(radices) - 1), prod(radices)
    reps = np.stack(first.reps)[:, first.live]
    tables = []
    for (p, k), local, digit, radix in zip(factors, second.local, digits, radices):
        q, val, place = p**k, _valuations(p, k), place // radix
        live = (local % p).any(axis=0)
        r2 = [v[None, :] for v in local[:, live].astype(_kernel_type(q))]
        shape = (k + 1,) * 3  # exponent triples, numbered in C order
        exp = np.ravel_multi_index(val.take(reps % q), shape)
        present = np.bincount(exp, minlength=(k + 1) ** 3) > 0
        exps, at = np.flatnonzero(present), (np.cumsum(present) - 1)[exp]
        r1 = (p ** np.array(np.unravel_index(exps, shape)) % q).astype(_kernel_type(q))
        codes = np.empty((exps.size, r2[0].size), dtype=key_type)
        step = max(1, _BLOCK // r2[0].size)
        for s in range(0, len(codes), step):
            coeffs = forms([v[s : s + step, None] for v in r1], r2, q)
            codes[s : s + step] = place * _local_keys(coeffs, p, k, val).astype(key_type)
        index = _int_type(codes.size - 1)
        rows = np.zeros(len(first.sizes), dtype=index)
        rows[first.live] = at * r2[0].size
        cols = (np.cumsum(live) - 1).astype(index)[digit]
        tables.append(_KeyTable(codes.ravel(), rows, cols))
    return tuple(tables)


@dataclass(frozen=True, eq=False)
class _OrbitTables:
    """Every table the jobs of one orbit census read, handed to each job in its arguments."""

    n: int
    first: _RowOrbits  # first-row triples
    second: _RowOrbits  # second-row orbits
    keys: tuple[_KeyTable, ...]  # key the pairs, one per prime power
    buckets: np.ndarray  # third-row counts of each key

    def contract(self, mult: np.ndarray) -> np.ndarray:
        """Counts by permanent, (rows, n), of prefix weights tallied per row and key in mult.

        Row s of buckets counts the completions of any prefix of key s, so an
        entry counts at most n^9 matrices.
        """
        return mult.reshape(-1, len(self.buckets)) @ self.buckets


@lru_cache(maxsize=1)
def _modulus_tables(n: int) -> tuple[_RowOrbits, np.ndarray, dict]:
    """The second-row orbits and bucket rows every orbit census mod n reads, and its tables by ordering.

    The dict starts empty; _orbit_tables fills it with each ordering's
    first-row triples and key tables.
    """
    return _row_orbits(n), _bucket_rows(n), {}


def _orbit_tables(n: int, ordered: bool) -> _OrbitTables:
    """The tables of one census mod n, built before dispatch; first-row triples ordered for the class census.

    Only the last modulus's tables outlive their census: consecutive
    censuses at one modulus share one build of the second-row orbits and
    bucket rows and one of each ordering's first-row triples and key
    tables, and the first census at another modulus releases them all.
    """
    second, buckets, by_ordering = _modulus_tables(n)
    if ordered not in by_ordering:
        first = _divisor_rows(n, ordered)
        by_ordering[ordered] = first, _key_tables(n, first, second)
    first, keys = by_ordering[ordered]
    return _OrbitTables(n=n, first=first, second=second, keys=keys, buckets=buckets)


def _orbit_jobs(c: _OrbitTables, *extra) -> list[tuple[tuple, int]]:
    """Chunks of the orbit pairs of c, split by first-row triple, as (job args, prefixes covered).

    Job (c, i0, i1, *extra) takes the triples i0 <= i < i1 of c.first
    against every second-row orbit, dead or live, and reads the tables of c
    alone. Every live triple meets the same live second-row orbits, so the
    split balances live pairs by giving each job max(1, _CHUNK // live
    second-row orbits) live triples; a dead triple goes with the job whose
    range holds it. Raises RuntimeError unless the pair weights sum to n^6.
    """
    first, second, n = c.first, c.second, c.n
    step = max(1, _CHUNK // int(second.live.sum()))
    cuts = [0, *np.flatnonzero(first.live)[step::step].tolist(), len(first.sizes)]
    n_second = int(second.sizes.sum())
    bounds = zip(cuts[:-1], cuts[1:])
    jobs = [((c, a, b, *extra), int(first.sizes[a:b].sum()) * n_second) for a, b in bounds]
    covered = sum(size for _, size in jobs)
    if covered != n**6:
        raise RuntimeError(f"row orbits mod {n} cover {covered} prefixes, not n^6 = {n**6}")
    return jobs


def _orbit_blocks(c: _OrbitTables, i0: int, i1: int):
    """Blocks of live orbit pairs (i, j), i0 <= i < i1, as (rows, cols, keys, weights).

    rows are the live first-row triples of the block and cols the live
    second-row orbits, both as indices into c.first and c.second; the arrays
    are shaped (rows, cols), with at most max(_BLOCK, len(cols)) elements.
    A pair's key is the sum of its entries in the key tables of c (0 at
    n = 1, which has no prime powers), and its weight |orbit i| * |orbit j|.
    """
    first, second = c.first, c.second
    live = i0 + np.flatnonzero(first.live[i0:i1])
    cols = np.flatnonzero(second.live)
    at = [t.cols[None, cols] for t in c.keys]
    step = max(1, _BLOCK // cols.size)
    for s in range(0, live.size, step):
        rows = live[s : s + step]
        keys = sum(t.codes.take(t.rows[rows, None] + a) for t, a in zip(c.keys, at))
        weights = first.sizes[rows, None] * second.sizes[None, cols]
        yield rows, cols, np.broadcast_to(keys, weights.shape), weights


def _tally(key, weights, n_keys: int) -> np.ndarray:
    """Exact int64 sums of weights per key in [0, n_keys); key and weights share a shape."""
    out = np.zeros(n_keys, dtype=np.int64)
    np.add.at(out, np.ravel(key), np.ravel(weights))  # flat operands take add.at's fast path
    return out


# ---------------------------------------------------------------------------
# censuses


def _tiered_job(args):
    c = args[0]
    mult = np.zeros(len(c.buckets), dtype=np.int64)
    for *_, key, w in _orbit_blocks(*args):
        mult += _tally(key, w, mult.size)
    return mult


def census_tiered(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census over GL3(Z/n) via orbit-pair bucketing; n <= INT64_CEILING."""
    modulus = _modulus("census_tiered", n)
    c = _orbit_tables(modulus.n, False)
    counts = c.contract(_sum_jobs(_tiered_job, _orbit_jobs(c), threads, progress))[0]
    return CountTable(modulus, tuple(int(v) for v in counts))


def _range_jobs(count: int, per_index: int, *head) -> list[tuple[tuple, int]]:
    """Jobs (*head, start, stop) over chunks of [0, count), as (job args, matrices covered).

    Each index stands for per_index matrices, and a chunk spans at most
    _CHUNK of them (at least one index).
    """
    step = max(1, _CHUNK // per_index)
    bounds = [(s, min(s + step, count)) for s in range(0, count, step)]
    return [((*head, a, b), (b - a) * per_index) for a, b in bounds]


def _naive_keys(n: int):
    """The naive sweep's tables (key12, key3, T, TT), built once per census.

    Over the prefix r = i2 + n^3 i3, second row i2 and third row i3 (base-n
    digits, least significant first), with forms (A, B, C, D, E, F), the
    matrix with first row (x, y, z) has the index perm' w + det', w = 3n - 2,
    where perm' = (A x mod n) + (B y mod n) + (C z mod n) and det' is the same
    sum over D, E, F: perm and det unreduced, each below w, so the index is
    below w^2. Each entry adds its terms on its own: T[u n + v, x] =
    (u x mod n) w + (v x mod n), shaped (n^2, n), is the term of an entry x
    under the coefficient column (u, v), and TT[c1 n^2 + c2, x n + y] =
    T[c1, x] + T[c2, y], shaped (n^4, n^2), those of x and y together. The
    keys key12[r] = (A n + D) n^2 + (B n + E) and key3[r] = C n + F then give
    the index as T[key3[r], z] + TT[key12[r], x n + y]: the jobs tally the
    second term per z-column key key3, and census_naive adds the first.

    The keys are of _int_type(n^4 - 1) and _int_type(n^2 - 1), and are
    formed by forms over all n^3 second rows against slices of at most
    max(1, _BLOCK // n^3) third rows. T and TT are of _int_type(w^2 - 1),
    which holds every index and every product u x < n^2 formed on the way.
    """
    w = 3 * n - 2
    t12, t3, t = _int_type(n**4 - 1), _int_type(n * n - 1), _int_type(w * w - 1)
    key12, key3 = np.empty(n**6, dtype=t12), np.empty(n**6, dtype=t3)
    row2 = [v[None, :] for v in _digits(range(n**3), n, 3)]
    step = max(1, _BLOCK // n**3)
    for s in range(0, n**3, step):
        row3 = [v[:, None] for v in _digits(range(s, min(s + step, n**3)), n, 3)]
        A, B, C, D, E, F = forms(row2, row3, n)
        rows = slice(s * n**3, (s + len(row3[0])) * n**3)
        key12[rows] = ((A.astype(t12) * n + D) * (n * n) + B * n + E).ravel()
        key3[rows] = (C.astype(t3) * n + F).ravel()
    x = np.arange(n, dtype=t)
    u, v = (c.astype(t)[:, None] for c in np.divmod(np.arange(n * n), n))
    T = mod(u * x, n) * w + mod(v * x, n)
    TT = (T[:, None, :, None] + T[None, :, None, :]).reshape(n**4, n * n)
    return key12, key3, T, TT


def _naive_width(n: int) -> int:
    """W = TT.max() + 1 of _naive_keys(n): the span of the first two entries' terms.

    One entry's term is at most (n - 1) w + (n - 1) = (w^2 - 1) / 3, w = 3n - 2,
    so two entries' terms stay below W = 2 (w^2 - 1) / 3 + 1, and the third
    entry's term plus W is at most w^2.
    """
    w = 3 * n - 2
    return 2 * (w * w - 1) // 3 + 1


def _naive_job(args):
    """The tally by z-column key of the first two entries' terms over prefixes start..stop-1.

    Each of the prefix's matrices has the unreduced index T[key3, z] +
    TT[key12, x n + y] (see _naive_keys), and the term of z depends on the
    prefix only through its z-column key key3. So the job lists each prefix's
    n^2 pairs (x, y) once, as key3 W + TT[key12, x n + y] with W =
    _naive_width(n), of _int_type(n^2 W - 1), and tallies them into an
    (n^2, W) int64 array by z-column key; census_naive then adds the n z-terms
    per key. A block of max(1, _BLOCK // n^2) prefixes is one take, one add
    and one bincount. The job reads the census's _naive_keys tables and
    makes no per-prefix table of its own.
    """
    n, (key12, key3, _, TT), start, stop = args
    width = _naive_width(n)
    t = _int_type(n * n * width - 1)
    step = max(1, _BLOCK // (n * n))
    tally = np.zeros(n * n * width, dtype=np.int64)
    for s in range(start, stop, step):
        block = slice(s, min(s + step, stop))
        index = TT.take(key12[block], axis=0).astype(t, copy=False)
        index += key3[block].astype(t)[:, None] * width
        tally += np.bincount(index.ravel(), minlength=tally.size)
    return tally


def _naive_joint(n: int, T: np.ndarray, tally: np.ndarray) -> np.ndarray:
    """The (w^2,) tally of unreduced indexes perm' w + det', w = 3n - 2, from _naive_job's tally.

    Adds each z-column key's row of the tally at offset T[key3, z], for each
    of the n values of z: by the distributive law over z this covers every
    first row of every prefix the tally came from, once. The highest offset
    is (w^2 - 1) / 3, so the last entry lands on w^2 - 1.
    """
    w = 3 * n - 2
    rows = tally.reshape(n * n, -1)
    span = np.arange(rows.shape[1])
    return sum(_tally(T[:, z, None] + span, rows, w * w) for z in range(n))


def census_naive(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census covering all n^9 matrices; n^9 <= SCAN_BUDGET, so n <= 8.

    Every matrix is covered exactly once, with no symmetry used: the census
    builds its _naive_keys tables, about 1.3 MB at n = 8, dispatches jobs of
    _CHUNK matrices to _naive_job, adds the third entry's terms to the summed
    tallies once per z-column key (_naive_joint), reduces the unreduced
    (perm, det) tally mod n, and sums its unit-determinant columns. It frees
    the tables when it returns.
    """
    modulus = _modulus("census_naive", n, scan=9)
    n, w = modulus.n, 3 * modulus.n - 2
    tables = _naive_keys(n)
    tally = _sum_jobs(_naive_job, _range_jobs(n**6, n**3, n, tables), threads, progress)
    fold = mod(np.arange(w), n)
    joint = _naive_joint(n, tables[2], tally).reshape(w, w)
    counts = _tally(fold, joint[:, _unit_mask(n).take(fold)].sum(axis=1), n)
    return CountTable(modulus, tuple(int(v) for v in counts))


def _two_by_two_job(args):
    n, start, stop = args
    perm, det = perm_det2(_digits(range(start, stop), n, 4), n)
    return np.bincount(perm[_unit_mask(n).take(det)], minlength=n)


def census_2x2(n: int | Modulus, *, threads: int = 1, progress=None) -> CountTable:
    """Exact permanent census over GL2(Z/n), scanning all n^4 <= SCAN_BUDGET matrices; n <= 107."""
    modulus = _modulus("census_2x2", n, scan=4)
    n = modulus.n
    counts = _sum_jobs(_two_by_two_job, _range_jobs(n**4, 1, n), threads, progress)
    return CountTable(modulus, tuple(int(v) for v in counts))


# ---------------------------------------------------------------------------
# class census: prefix = rows 2 and 3, inner variable = row 1
#
# The three row-1 sub-permanents P11, P12, P13 depend only on the prefix; if
# one of them is a unit mod p the class of every matrix over that prefix is
# already decided, and the (perm, det) pair is again two linear forms in the
# inner row. With rows 2 and 3 as the prefix, P11, P12, P13 are the forms A, B,
# C and the row-1 cofactors are D, E, F.
#
# A column permutation reorders P11, P12 and P13, so row 2 runs over ordered
# divisor triples (unit column scaling only), of weight prod phi(n / g_i).
#
# The orbit pairs whose P11, P12, P13 are all divisible by p are left over:
# there the class depends on the first row, through P21 and then P22. A
# left-over pair whose cofactors D, E, F are all divisible by p too has no
# invertible completion and is skipped. At p = 2 that is every left-over
# pair, since each cofactor is then congruent to its sub-permanent.
#
# Two symmetries reduce each remaining pair to one representative prefix
# swept against one representative first row per orbit.
# - Scaling the first row by a unit w multiplies the determinant, the
#   permanent, P21 and P22 by w. Units scale a residue onto exactly the
#   residues of its valuation, the class C_g of valuation g: phi(p^(k - g))
#   residues for g < k, and 0 alone at g = k. So the rows of first-row orbit
#   r (size s_r, permanent v_r) spread evenly over the class of v_r, and
#   over all n^3 first rows the tally is t[v] = T(C_g) / |C_g| at every v
#   of valuation g, where T(C_g) adds s_r over the reps whose permanent has
#   valuation g. The division is exact; _leftover_tally raises RuntimeError
#   if it is not.
# - Scaling rows 2 and 3 by units u2 and u3 leaves unchanged, for every
#   first row, whether the determinant is a unit and whether P21 or P22 is,
#   and multiplies the permanent by u2 u3. As t is constant on each
#   valuation class, every prefix of the pair (i, j) has the tally t, and
#   the pair contributes s_i s_j t.
# - Scaling the columns by a unit diagonal D keeps whether det, P21 or P22
#   is a unit, and multiplies the permanent by prod d_c; as t is
#   unit-invariant and M -> M D permutes the first rows, the prefix
#   (r2 D, r3 D) has the tally t of (r2, r3). So s_i may be a row-2 triple's.
# Unit-determinant matrices with neither P21 nor P22 a unit are violations.


def _leftover_tally(c: _OrbitTables, i, j, p: int, k: int, val: np.ndarray) -> np.ndarray:
    """C21, C22 and violation tallies by permanent of the orbit pairs (i, j), shaped (3, p^k).

    Row 2 is rep i of c.first, row 3 rep j of c.second, the first rows run
    over c.second, and the kernel runs in the reps' type. Each pair is
    tallied in int64 by label and the valuation val = _valuations(p, k) of
    its permanent, and each valuation class's tally divided by the class's
    size. A function, so that each block's (pairs x first-row orbits) arrays
    are freed before the next block allocates its own.
    """
    n, rows2, o = c.n, c.first, c.second
    e = [*(v[None, :] for v in o.reps), *(v[i, None] for v in rows2.reps), *(v[j, None] for v in o.reps)]
    perm, det, _, _, _, p21, p22 = perm_det_subperms(e, n)
    lab, pivot = first_unit((p21, p22), p)
    label = lab + (mod(pivot, p) == 0)  # 0 or 1 for C21 or C22, 2 where neither is a unit
    # int8 label plus the int64 pair index: the key is formed in int64
    key = (np.arange(i.size)[:, None] * 3 + label) * (k + 1) + val.take(perm)
    weights = np.where(mod(det, p) != 0, o.sizes, 0)
    tally = _tally(key, weights, 3 * (k + 1) * i.size).reshape(i.size, 3, k + 1)
    whole, rest = np.divmod(tally, np.bincount(val, minlength=k + 1))
    if rest.any():
        raise RuntimeError(f"left-over class tallies mod {n} are not divisible by their class sizes")
    return np.tensordot(rows2.sizes[i] * o.sizes[j], whole, axes=1).take(val, axis=1)


def _class_job(args):
    """(3, keys + n): prefixes per (head class, key), then the left-over tallies."""
    c, _, _, p, k, val = args
    n_keys = len(c.buckets)
    mult = np.zeros(3 * n_keys, dtype=np.int64)
    left = np.zeros((3, c.n), dtype=np.int64)
    r3 = [v[None, c.second.live] for v in c.second.reps]  # the cols of every block
    step = max(1, _BLOCK // len(c.second.sizes))  # left-over pairs per block
    for rows, cols, key, w in _orbit_blocks(*args[:3]):
        p11, p12, p13, d1, d2, d3 = forms([v[rows, None] for v in c.first.reps], r3, c.n)
        lab, pivot = first_unit((p11, p12, p13), p)
        headed = mod(pivot, p) != 0
        mult += _tally((lab.astype(np.int64) * n_keys + key)[headed], w[headed], 3 * n_keys)
        i, j = np.nonzero(~headed & ((mod(d1, p) != 0) | (mod(d2, p) != 0) | (mod(d3, p) != 0)))
        for b in range(0, i.size, step):
            block = slice(b, b + step)
            left += _leftover_tally(c, rows[i[block]], cols[j[block]], p, k, val)
    return np.hstack([mult.reshape(3, n_keys), left])


def _class_scan(p: int, k: int, *, threads: int = 1, progress=None):
    """Shared engine for class_census and the emptiness scan; p^k <= INT64_CEILING.

    Returns (counts, violations): counts is an (n, 5) int array of per-x
    per-class tallies over GL3(Z/p^k); violations counts invertible matrices
    with no unit among the five sub-permanents (always 0 in practice).
    """
    _check_bound("class_census", p, k)
    if not is_prime(p):
        raise ValueError(f"class census needs a prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    c = _orbit_tables(p**k, True)
    tallies = _sum_jobs(_class_job, _orbit_jobs(c, p, k, _valuations(p, k)), threads, progress)
    heads, left = np.split(tallies, [len(c.buckets)], axis=1)
    return np.vstack([c.contract(heads), left[:2]]).T, int(left[2].sum())


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
    c = args[0]
    n_keys = len(c.buckets)
    nnz1, nnz2 = (sum((v != 0).astype(np.int64) for v in o.reps) for o in (c.first, c.second))
    mult = np.zeros(8 * n_keys, dtype=np.int64)
    for rows, cols, key, w in _orbit_blocks(*args):
        pattern = _PATTERN_OF[nnz1[rows, None], nnz2[None, cols]]
        mult += _tally(pattern * n_keys + key, w, 8 * n_keys)
    return mult


def case_census(p: int, *, threads: int = 1, progress=None) -> CaseCensus:
    """Zero-permanent census over GL3(Z/p), p <= INT64_CEILING, split by the seven zero patterns."""
    _check_bound("case_census", p)
    if not is_prime(p) or p == 2:
        raise ValueError(f"case census needs an odd prime, got {p}")
    c = _orbit_tables(p, False)
    mult = _sum_jobs(_case_job, _orbit_jobs(c), threads, progress).reshape(8, -1)
    # at a prime the only dead row is the zero row, so the live pairs are the
    # p^6 - (2 p^3 - 1) prefixes with no all-zero row, and none is pattern 7
    live = p**6 - (2 * p**3 - 1)
    if mult[7].any() or int(mult.sum()) != live:
        raise RuntimeError(
            f"case census mod {p} tallied {int(mult.sum())} prefixes, {int(mult[7].sum())} "
            f"of them with an all-zero row; want {live} and none"
        )
    per_pattern = c.contract(mult)[:, 0].tolist()
    rows = tuple(
        CaseCensusRow(key[0], key[1], per_pattern[r]) for r, key in enumerate(_PATTERN_KEYS)
    )
    return CaseCensus(p, rows)
