"""Shared frozen oracles for the test suite.

object_census3 is a deliberately naive, object-level census used to validate
the array engines at tiny moduli. It evaluates through the same matrices
kernel as the engines, so its independent pins are the Leibniz tests in
test_matrices and the frozen tables below, which were produced by exhaustive
enumeration.

third_row_counts_generic is the reference for the third-row counts of the
orbit engines' buckets, which read them off a closed form in three gcds
instead of sweeping all n^3 third rows. subgroup_rows is the reference above
the sweep's range: it lists every element of a subgroup of (Z/n)^2 given by
its Hermite basis (a, 0), (b, d).

zero_perm_members_by_filter and members_per_prefix_by_filter are the
references for structure_maps.zero_perm_members, the shift check's member
enumeration, which solves for one row of permanent 0 over each prefix of
two grids and lists only members, instead of filtering all n^3 rows. The
head grid solves row 1 over rows 2 and 3 and lists the members with a unit
among P11, P12, P13; the left-over grid solves row 2 over rows 1 and 3 and
lists the others. grid names the grid of a batch by its layout, materialize
turns a batch into (9, m) members, widened from the batch's unsigned member
type to int64, and member_groups counts the prefixes of a range in each
label group of each grid.

hnf_by_euclid reduces the three coefficient columns of each prefix to the
Hermite basis of their span, one extended-Euclid step per column, so that
subgroup_rows gives the prefix's third-row counts. gcd_keys is the reference
for the orbit engines' bucket keys: it forms each prefix's three gcds with
n, one prefix at a time, and joins their valuations at each prime power into
one key mod n. The engines form no key mod n at all: their keys exist only
per prime power, read off per-prime-power tables, and census_tiered(n) is
the product of its censuses at each p^k || n, read at x mod p^k.
bucket_rows gives the row of each gcd_keys key as the product of
oracle._bucket_rows(p, k) at its local keys, read at x mod p^k, so every
test that reads a key's row through it also pins that product rule for one
key. prefix_tally_by_gcd_keys is the reference for the tiered census: it
keys every sorted divisor triple of n against all n^3 second rows by
gcd_keys, with no orbits, no Chinese remainder theorem and no
per-prime-power table. With census_naive at n = 6, it is what confirms the
product of the prime-power censuses at a composite n.

row_orbits_by_unit_minimum is the reference for oracle._prime_power_row_orbits,
which builds each unit-scaling orbit's normal form directly instead of taking
the least image of every row over all units.

normal_forms_by_meshgrid and divisor_rows_by_itertools are the earlier
constructions of oracle._prime_power_row_orbits and _divisor_rows, kept as
references for the whole-array builders: one meshgrid per (valuation, pivot)
block of normal forms, and divisor triples listed by itertools, at any n
where oracle._divisor_rows(p, k) counts them per prime power.

naive_joint_by_matrix is the earlier oracle._naive_job, the reference for the
naive sweep's tallies: it lists each matrix's own index over all n^3 first
rows of each prefix, where the job lists the first two entries once per prefix
and oracle._naive_joint adds the third entry's term per z-column key.

shift_verify_members_by_scatter is the reference for the shift check,
verify._shift_verify, on (9, m) members and on grid batches alike: it copies
each batch per shift, moves the pivot entries by a flat gather and scatter,
evaluates every image and return image through perm_det and
perm_det_subperms, and runs every check at x = 0 too; it takes batches of
any labels. The check under test takes batches of one label only, expands
them along the pivot row on the forms of the other two, formed once per
prefix on the grid, moves the one pivot entry, sums the terms of the other
two entries once per member, and reads x = 0 off the member's own
evaluation. by_label splits (9, m) matrices into the parts it takes.
label_pivot is the reference for matrices.first_unit on the five
sub-permanents.
"""

import functools
import itertools
from math import gcd

import numpy as np

from gl3census import oracle, structure_maps
from gl3census.matrices import Mat3, determinant3, forms, mod, permanent3, perm_det, perm_det_subperms
from gl3census.modring import factorize


def object_census3(n: int) -> tuple[int, ...]:
    counts = [0] * n
    modulus = factorize(n)
    for entries in itertools.product(range(n), repeat=9):
        m = Mat3((entries[0:3], entries[3:6], entries[6:9]), modulus)
        if gcd(determinant3(m).value, n) == 1:
            counts[permanent3(m).value] += 1
    return tuple(counts)


def third_row_counts_generic(sig: tuple[int, int, int, int, int, int], n: int) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows, by enumerating all n^3.

    sig = (A, B, C, D, E, F): the permanent and the determinant of a matrix
    with third row (x, y, z) are A x + B y + C z and D x + E y + F z mod n.
    """
    A, B, C, D, E, F = sig
    x, y, z = (np.arange(n**3, dtype=np.int64) // n**t % n for t in range(3))
    perm = (A * x + B * y + C * z) % n
    det = (D * x + E * y + F * z) % n
    return np.bincount(perm[np.gcd(det, n) == 1], minlength=n)


def hnf_by_euclid(n: int, forms) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The Hermite basis (a, 0), (b, d) of the span of the columns (A, D), (B, E), (C, F) of forms, per entry.

    From the basis (n, 0), (0, n) of nZ^2, an extended-Euclid step on second
    coordinates folds each column into (b, d), and the combination it drops
    has second coordinate 0, so it joins aZ x 0. The lattice spanned is the
    subgroup's preimage in Z^2, with a | n, d | n and 0 <= b < a (H. Cohen,
    A Course in Computational Algebraic Number Theory, GTM 138, section 2.4).
    """
    euclid = np.array([[ext_gcd(y, v) for v in range(n)] for y in range(n + 1)])
    A, B, C, D, E, F = (np.asarray(f, dtype=np.int64) for f in forms)
    a = np.full(A.shape, n, dtype=np.int64)
    b = np.zeros_like(a)
    d = np.full_like(a, n)
    for u, v in ((A, D), (B, E), (C, F)):
        g, s, t = np.moveaxis(euclid[d, v], -1, 0)
        a = np.gcd(a, (v // g) * b - (d // g) * u)
        b = (s * b + t * u) % a
        d = g
    return a, b, d


def subgroup_rows(n: int, a, b, d) -> np.ndarray:
    """Per-permanent counts of unit-determinant third rows over each subgroup <(a, 0), (b, d)> mod n.

    The forms map the n^3 third rows onto H evenly, n^3 / |H| rows to each
    element. The rows come from a listing of every element i (a, 0) + j (b, d)
    of H, 0 <= i < n / a, 0 <= j < n / d, |H| = n^2 / (a d) of them, and
    count the first coordinates of those whose second coordinate is a unit.
    """
    a, b, d = (np.asarray(v, dtype=np.int64).ravel() for v in (a, b, d))
    sizes = n * n // (a * d)
    sid = np.repeat(np.arange(sizes.size), sizes)
    a, b, d = a[sid], b[sid], d[sid]
    e = np.arange(sid.size) - (np.cumsum(sizes) - sizes)[sid]
    i, j = e % (n // a), e // (n // a)
    key = sid * n + (i * a + j * b) % n
    counts = np.bincount(key[oracle._unit_mask(n)[j * d % n]], minlength=sizes.size * n)
    return counts.reshape(sizes.size, n) * (n**3 // sizes)[:, None]


def gcd_keys(n: int, forms) -> np.ndarray:
    """The bucket key of the forms (A, B, C, D, E, F), residues mod n, by their three gcds with n, per entry.

    d = gcd(D, E, F, n), a = gcd(AE - BD, AF - CD, BF - CE, n) and
    g = gcd(A, B, C, n). At each p^k || n the local key is the dead key
    (k + 1)^2 where p | d, else e_a (k + 1) + e_g, the valuations of a and g
    at p; the local keys are joined in mixed radix, (k + 1)^2 + 1 each, the
    first prime power's most significant.
    """
    A, B, C, D, E, F = (np.asarray(f, dtype=np.int64) for f in forms)

    def gcd_n(*terms):
        return functools.reduce(np.gcd, terms, n)

    a, g, d = gcd_n(A * E - B * D, A * F - C * D, B * F - C * E), gcd_n(A, B, C), gcd_n(D, E, F)
    key = np.zeros_like(a)
    for p, k in factorize(n).factors:
        e_a, e_g, e_d = (sum(v % p**t == 0 for t in range(1, k + 1)) for v in (a, g, d))
        key = key * ((k + 1) ** 2 + 1) + np.where(e_d > 0, (k + 1) ** 2, e_a * (k + 1) + e_g)
    return key


def bucket_rows(n: int) -> np.ndarray:
    """The (keys, n) rows of the gcd_keys(n, ...) keys: per key, the product of its local keys' oracle._bucket_rows.

    The local rows at p^k are read at x mod p^k, and the keys come in
    gcd_keys' mixed-radix order, the first prime power's most significant.
    """
    rows, x = np.ones((1, n), dtype=np.int64), np.arange(n)
    for p, k in factorize(n).factors:
        local = oracle._bucket_rows(p, k)[:, x % p**k]
        rows = (rows[:, None, :] * local[None, :, :]).reshape(-1, n)
    return rows


def row_orbits_by_unit_minimum(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Orbits of the rows (Z/n)^3 under unit scaling, as (least row index, size) arrays.

    Row r0 + r1 n + r2 n^2 is mapped to the least index of its images under
    every unit; the distinct least indices are the orbits, sorted.
    """
    rows = oracle._digits(range(n**3), n, 3)
    least = None
    for u in np.flatnonzero(oracle._unit_mask(n)):
        image = u * rows[0] % n + u * rows[1] % n * n + u * rows[2] % n * (n * n)
        least = image if least is None else np.minimum(least, image)
    return np.unique(least, return_counts=True)


def ext_gcd(y: int, v: int) -> tuple[int, int, int]:
    """(g, s, t) with s y + t v = g = gcd(y, v), by the extended Euclidean algorithm."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while v:
        q, y, v = y // v, v, y % v
        s0, s1 = s1, s0 - q * s1
        t0, t1 = t1, t0 - q * t1
    return y, s0, t0


def normal_forms_by_meshgrid(p: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The unit-scaling orbits of (Z/p^k)^3 as (3, orbits) int64 reps and sizes, one meshgrid per block.

    The zero row, then for each valuation v < k and pivot c < 3 the rows
    p^v r' with r'_c = 1, multiples of p before c and anything mod p^(k - v)
    after it, in C order; each orbit has phi(p^(k - v)) rows.
    """
    reps, sizes = [np.zeros((3, 1), dtype=np.int64)], [np.ones(1, dtype=np.int64)]
    for v in range(k):
        m = p ** (k - v)
        for c in range(3):
            axes = [np.arange(0, m, p)] * c + [np.arange(1, 2)] + [np.arange(m)] * (2 - c)
            grid = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")])
            reps.append(p**v * grid)
            sizes.append(np.full(grid.shape[1], m - m // p, dtype=np.int64))
    return np.hstack(reps), np.concatenate(sizes)


def divisor_rows_by_itertools(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Sorted gcd triples mod n and their orbit sizes, listed by itertools, orderings counted by set.

    At n = p^k these are the rows p ** oracle._sorted_triples(k + 1) and the
    sizes oracle._divisor_rows(p, k), in the same order.
    """
    per_gcd = np.bincount(np.gcd(np.arange(n), n), minlength=n + 1)
    divisors = np.flatnonzero(per_gcd).tolist()
    triples = list(itertools.combinations_with_replacement(divisors, 3))
    orderings = [len(set(itertools.permutations(g))) for g in triples]
    sizes = np.array(orderings, dtype=np.int64) * per_gcd[triples].prod(axis=1)
    return np.array(triples, dtype=np.int64).reshape(-1, 3).T, sizes


def prefix_tally_by_gcd_keys(n: int) -> np.ndarray:
    """The prefixes mod n per gcd_keys key, all n^6: every sorted divisor triple against all n^3 second rows.

    Each triple (g1, g2, g3), as the row (g1, g2, g3) mod n, is paired with
    every second row and keyed by gcd_keys; its key counts are multiplied by
    the triple's orbit size, the number of rows whose sorted gcds with n it
    is (itertools listing, as in divisor_rows_by_itertools).
    """
    n_keys = int(np.prod([(k + 1) ** 2 + 1 for _, k in factorize(n).factors]))
    triples, sizes = divisor_rows_by_itertools(n)
    second = [(np.arange(n**3, dtype=np.int64) // n**t % n)[None, :] for t in range(3)]
    tally = np.zeros(n_keys, dtype=np.int64)
    for row, size in zip(triples.T % n, sizes.tolist()):
        keys = gcd_keys(n, forms([np.full((1, 1), v) for v in row], second, n))
        tally += size * np.bincount(keys.ravel(), minlength=n_keys)
    return tally


def naive_joint_by_matrix(args) -> np.ndarray:
    """The (w^2,) unreduced (perm, det) tally, w = 3n - 2, of the matrices of an oracle._naive_job chunk.

    The earlier oracle._naive_job before its reduction mod n: it lists every
    matrix's own index, T[key3, z] + TT[key12, x n + y] over all n^3 first
    rows (x, y, z) of each prefix, in blocks of max(1, 2 _BLOCK // n^3)
    prefixes, and bincounts them.
    """
    n, (key12, key3, T, TT), start, stop = args
    w = 3 * n - 2
    step = max(1, 2 * oracle._BLOCK // n**3)
    joint = np.zeros(w * w, dtype=np.int64)
    for s in range(start, stop, step):
        block = slice(s, min(s + step, stop))
        index = T.take(key3[block], axis=0)[:, :, None] + TT.take(key12[block], axis=0)[:, None, :]
        joint += np.bincount(index.ravel(), minlength=w * w)
    return joint


def zero_perm_members_by_filter(n: int):
    """Every member of G(n, 0), n prime, in (9, m) batches, by testing all n^3 first rows of each prefix.

    Prefixes (rows 2 and 3) go in blocks of 2048 against every first row.
    Each batch comes with a mask of its members with a unit among P11, P12,
    P13, the ones the head grid lists.
    """
    first = [v[None, :] for v in oracle._digits(range(n**3), n, 3)]
    unit = oracle._unit_mask(n)
    for start in range(0, n**6, 2048):
        prefix = [v[:, None] for v in oracle._digits(range(start, min(start + 2048, n**6)), n, 6)]
        perm, det = perm_det(first + prefix, n)
        pi, fi = np.nonzero((perm == 0) & unit[det])
        e = np.stack([v[0, fi] for v in first] + [v[pi, 0] for v in prefix])
        yield e, head_members(e, n, n)


def head_members(e, n: int, p: int) -> np.ndarray:
    """Which of the matrices e have a unit among P11, P12, P13 mod p: their pivot is in row 1."""
    return (np.stack(perm_det_subperms(e, n)[2:5]) % p != 0).any(axis=0)


def members_per_prefix_by_filter(p: int, k: int, prefixes: range) -> tuple[np.ndarray, np.ndarray]:
    """Per prefix of prefixes, the members of G(p^k, 0) each grid lists over it, among all n^3 solved rows.

    The head count is over the members with the prefix as rows 2 and 3 and a
    unit among P11, P12, P13 mod p; the left-over count over those with the
    prefix as rows 1 and 3 and none. Prefixes go in blocks of 512.
    """
    n = p**k
    free = [v[None, :] for v in oracle._digits(range(n**3), n, 3)]
    counts = ([], [])
    for start in range(prefixes.start, prefixes.stop, 512):
        prefix = [v[:, None] for v in oracle._digits(range(start, min(start + 512, prefixes.stop)), n, 6)]
        grids = ((free + prefix, True), (prefix[0:3] + free + prefix[3:6], False))
        for count, (e, head) in zip(counts, grids):
            perm, det = perm_det(e, n)
            member = (perm == 0) & oracle._unit_mask(n)[det]
            count.append((member & (head_members(e, n, p) == head)).sum(axis=1))
    return np.concatenate(counts[0]), np.concatenate(counts[1])


def grid(batch) -> str:
    """The grid of a structure_maps.zero_perm_members batch, by its layout: the row that is per member."""
    return "head" if batch[0].shape[0] > 1 else "left-over"


def materialize(batch) -> np.ndarray:
    """The (9, m) row-major entries of a structure_maps.zero_perm_members batch, in int64.

    The batch's nine arrays broadcast to (L, G), L members over each of G
    prefixes; the members come prefix by prefix. The batch's own type is
    unsigned, which wraps on the subtraction in the kernel's forms, so the
    references get the members widened before any arithmetic.
    """
    shape = np.broadcast_shapes(*(np.shape(e) for e in batch))
    return np.stack([np.broadcast_to(e, shape).T.ravel() for e in batch]).astype(np.int64)


def member_groups(p: int, k: int, prefixes: range) -> dict:
    """How many prefixes of the range fall in each (grid, label) group of zero_perm_members.

    Read off structure_maps._member_basis and _leftover_basis, the grids' own
    per-prefix bases, to show that a test's prefixes reach every group: the
    head labels 0, 1, 2 and the left-over labels 3 and 4.
    """
    n = p**k
    prefix = [v.astype(oracle._kernel_type(n)) for v in oracle._digits(prefixes, n, 6)]
    head = np.bincount(structure_maps._member_basis(prefix, p, k)[0], minlength=4)
    left = np.bincount(structure_maps._leftover_basis(prefix, p, k)[0], minlength=3)
    groups = {("head", c): int(head[c]) for c in range(3)}
    return groups | {("left-over", c + 3): int(left[c]) for c in range(2)}


def by_label(e, n: int, p: int) -> list[np.ndarray]:
    """The (9, m) matrices e split by label, 0 to 4 in order, each part if it has any."""
    lab, _ = label_pivot(e, n, p)
    return [part for part in (e[:, lab == c] for c in range(5)) if part.shape[1]]


def prefix_index(e, n: int, rows=(1, 2)) -> np.ndarray:
    """Each of the (9, m) members' prefix index: the base-n number with the entries of rows as digits.

    rows are 0-based: (1, 2) for the head grid's prefixes, (0, 2) for the left-over grid's.
    """
    entries = [e[3 * r + i] for r in rows for i in range(3)]
    return sum(v.astype(np.int64) * n**i for i, v in enumerate(entries))


def label_pivot(e, n, p):
    """Per matrix: the index of its first unit sub-permanent mod p, and that sub-permanent.

    The index (0..4, P11, P12, P13, P21, P22) is also the row-major position
    of the pivot entry. A matrix with no unit among the five gets index 4.
    """
    subs = perm_det_subperms(e, n)[2:]
    lab, pivot = np.full(e.shape[1], 4, dtype=np.int8), subs[4]
    for i in (3, 2, 1, 0):
        off = mod(subs[i], p) == 0
        lab = off * (lab - i) + i
        pivot = off * (pivot - subs[i]) + subs[i]
    return lab, pivot


def shift_verify_members_by_scatter(e, n, p, shifts, inv_table):
    """Per-shift violation counts of the pivot-shift map on the (9, m) batch e.

    Each shift copies e, adds its step to every member's pivot entry through
    flat indices into the copy, and shifts back the same way from a copy of
    the image. A violation is any member whose image fails perm == x, unit
    determinant, class preservation, or the round trip. e and inv_table are
    widened to int64 before any arithmetic, so the reference is exact on
    batches of any type, unsigned ones included.
    """
    e, inv_table = np.asarray(e, dtype=np.int64), np.asarray(inv_table, dtype=np.int64)
    count = e.shape[1]
    unit = oracle._unit_mask(n)
    lab, pivot = label_pivot(e, n, p)
    entries = e.reshape(-1)
    cols = np.arange(count)
    at = cols + lab.astype(np.intp) * count  # each member's pivot entry in the flat entries
    violations = {}
    for x in shifts:
        img = e.copy()
        img.reshape(-1)[at] = mod(entries[at] + mod(x * inv_table[pivot], n), n)
        perm_i, det_i = perm_det(img, n)
        lab_i, pivot_i = label_pivot(img, n, p)
        back = img.copy()
        at_i = cols + lab_i.astype(np.intp) * count
        back_entries = back.reshape(-1)
        back_entries[at_i] = mod(back_entries[at_i] + mod((n - x) * inv_table[pivot_i], n), n)
        ok = (perm_i == x % n) & unit[det_i] & (lab_i == lab) & (back == e).all(axis=0)
        violations[x] = count - int(ok.sum())
    return violations


# full permanent censuses of GL3(Z/n), x = 0..n-1
CENSUS3 = {
    1: (1,),
    2: (0, 168),
    3: (3312, 3960, 3960),
    4: (0, 43008, 0, 43008),
    5: (288000, 300000, 300000, 300000, 300000),
    6: (0, 665280, 0, 556416, 0, 665280),
    7: (4653936,) + (4855032,) * 6,
    8: (0, 11010048) * 4,
    9: (21730032, 25981560, 25981560) * 3,
}

# permanent censuses of GL2(Z/n)
CENSUS2 = {
    2: (0, 6),
    3: (8, 20, 20),
    4: (0, 48, 0, 48),
    5: (64,) + (104,) * 4,
    6: (0, 120, 0, 48, 0, 120),
    7: (216,) + (300,) * 6,
    11: (1000,) + (1220,) * 10,
    13: (1728,) + (2040,) * 12,
}

# zero-permanent counts at the primes the formulas are pinned to
ZERO_COUNTS = {3: 3312, 5: 288000, 7: 4653936, 11: 192390000, 13: 739964160}

# per-class table: n -> (zero count, c11, c12, c13, c21, c22)
CLASS_TABLE = {
    3: (3312, 2208, 576, 96, 384, 48),
    5: (288000, 225280, 38400, 5120, 17920, 1280),
    7: (4653936, 3900960, 508032, 54432, 181440, 9072),
    9: (21730032, 14486688, 3779136, 629856, 2519424, 314928),
    11: (192390000, 173140000, 14520000, 1100000, 3520000, 110000),
    13: (739964160, 677154816, 49061376, 3234816, 10243584, 269568),
}

# zero-pattern case rows, in (row1_nonzeros, row2_nonzeros) order
# (1,None),(2,1),(2,2),(2,3),(3,1),(3,2),(3,3); from exhaustive enumeration
CASE_ROWS = {
    3: (432, 144, 1008, 576, 288, 576, 288),
    5: (19200, 3840, 49920, 61440, 15360, 61440, 76800),
    7: (190512, 27216, 517104, 979776, 163296, 979776, 1796256),
}
