"""Executable forms of the structural arguments behind the counts.

psi_shift realizes the entry-shift bijections between permanent classes,
project is the entrywise reduction from Z/p^k to Z/p, fiber_count verifies the
lift-fiber size by enumeration, witness builds explicit members of the five
sub-permanent classes, and emptiness_scan exhaustively confirms that no
invertible matrix escapes those five classes. zero_perm_members lists all of
G(p^k, 0) by solving the permanent's linear form in row 1, or in row 2 where
no sub-permanent of row 1 is a unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .matrices import (
    CLASS_LABELS,
    ClassLabel,
    Mat3,
    classify,
    expand,
    first_unit,
    forms,
    is_invertible,
    mod,
    perm_det,
    permanent3,
    sub_permanents,
)
from .modring import Residue, factorize, is_prime


class PivotNotUnit(ArithmeticError):
    """The pivot sub-permanent of the requested class is not invertible."""


class ShiftNotDivisible(ValueError):
    """The shift amount is not divisible by p."""


@dataclass(frozen=True)
class ShiftResult:
    """Outcome of a pivot-entry shift: differs from the source in one entry."""

    image: Mat3
    position: tuple[int, int]  # 1-based entry that moved
    amount: Residue


def psi_shift(m: Mat3, x: int | Residue, p: int, label: ClassLabel | None = None) -> ShiftResult:
    """Move the permanent of m by x by shifting one entry.

    Adds x * P_ij^(-1) to entry (i, j), the pivot position of the matrix's
    class mod p (or of an explicit ``label``). Requires p | x, so the
    determinant moves by a multiple of p: invertibility and the class are both
    preserved while the permanent moves by exactly x. Shifting by x and then
    by n - x returns the original matrix.
    """
    n = m.modulus.n
    if not is_prime(p) or n % p != 0:
        raise ValueError(f"need a prime p dividing the modulus; got p={p}, n={n}")
    xv = int(x) % n
    if xv % p != 0:
        raise ShiftNotDivisible(f"shift {xv} is not divisible by {p}")
    if not is_invertible(m):
        raise ValueError("cannot shift a non-invertible matrix")
    if label is None:
        label = classify(m, p)
    if label not in CLASS_LABELS:
        raise ValueError(f"no pivot for label {label}")
    pivot_val = sub_permanents(m).ordered()[CLASS_LABELS.index(label)]
    if pivot_val.value % p == 0:
        raise PivotNotUnit(f"P{label.pivot[0]}{label.pivot[1]} = {pivot_val.value} is not a unit mod {p}")
    amount = Residue(xv * pow(pivot_val.value, -1, n), m.modulus)
    i, j = label.pivot
    image = m.with_entry(i, j, m.entry(i, j) + amount.value)
    if permanent3(image).value != (permanent3(m).value + xv) % n:
        raise RuntimeError(f"shift by {xv} did not move the permanent by {xv}")
    return ShiftResult(image=image, position=(i, j), amount=amount)


def project(m: Mat3, p: int) -> Mat3:
    """Entrywise reduction of m to Z/p."""
    if m.modulus.n % p != 0:
        raise ValueError(f"{p} does not divide the modulus {m.modulus.n}")
    return Mat3(m.rows, factorize(p))


def fiber_count(a: Mat3, p: int, k: int, *, progress=None) -> int:
    """Entrywise lifts of a to Z/p^k that are invertible with permanent divisible by p.

    Enumerates all p^(9(k-1)) lifts, within oracle.SCAN_BUDGET (so up to 7^2,
    but not 3^3), rather than assuming the fiber is full; the point is
    verification. Requires a to be invertible mod p with permanent 0 mod p.
    """
    oracle._check_bound("fiber_count", p, k, scan=9 * (k - 1))
    if not is_prime(p) or a.modulus.n != p:
        raise ValueError(f"base matrix must live over Z/p for a prime p, got {a.modulus.n}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if permanent3(a).value != 0 or not is_invertible(a):
        raise ValueError("base matrix must be invertible with permanent 0 mod p")
    q = p ** (k - 1)
    flat = tuple(v for row in a.rows for v in row)
    jobs = oracle._range_jobs(q**9, 1, flat, p, k)
    return int(oracle._sum_jobs(_fiber_job, jobs, progress))


def _fiber_job(args):
    """Lifts start..stop-1 of fiber_count that are invertible with permanent divisible by p.

    Lift t adds p times the base-p^(k - 1) digits of t, in _kernel_type(n), to the base matrix's entries.
    """
    flat, p, k, start, stop = args
    n = p**k
    t = oracle._digits(range(start, stop), p ** (k - 1), 9)
    perm, det = perm_det([f + p * d.astype(oracle._kernel_type(n)) for f, d in zip(flat, t)], n)
    return int((oracle._unit_mask(n).take(det) & (mod(perm, p) == 0)).sum())


def witness(label: ClassLabel, p: int, k: int = 1, x: int = 0) -> Mat3:
    """An explicit invertible matrix over Z/p^k with permanent x in the given class.

    Defined for odd p and p | x. The five constructions pivot on entries like
    (x-1)^(-1) and 1/2, which is why p = 2 is rejected.
    """
    if not is_prime(p) or p == 2:
        raise ValueError(f"witnesses need an odd prime, got {p}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if x % p != 0:
        raise ValueError(f"witness permanent {x} must be divisible by {p}")
    n = p**k
    mod = factorize(n)
    xm = x % n
    if label is ClassLabel.C11:
        half = pow(2, -1, n)
        rows = (((xm - 1) * half, (xm + 1) * half, 0), (1, 1, 0), (0, 0, 1))
    elif label is ClassLabel.C12:
        rows = ((1, 0, 0), (1, 1, 1), (0, 1, xm - 1))
    elif label is ClassLabel.C13:
        inv = pow(xm - 1, -1, n)
        rows = ((1, 0, 0), (inv, 1, 1), (xm - 1, 1, xm - 1))
    elif label is ClassLabel.C21:
        rows = ((0, 0, 1), (1, 1, 0), (xm - 1, 1, 0))
    elif label is ClassLabel.C22:
        rows = ((1, 1, 1), (0, 1, 1), (0, 1, xm - 1))
    else:
        raise ValueError(f"no witness for label {label}")
    return Mat3(rows, mod)


@dataclass(frozen=True)
class EmptinessReport:
    """Result of scanning GL3(Z/p^k) for matrices outside the five classes."""

    p: int
    k: int
    scanned: int
    violations: int


def emptiness_scan(p: int, k: int = 1, *, threads: int = 1, progress=None) -> EmptinessReport:
    """Exhaustively confirm every invertible matrix mod p^k has a unit sub-permanent.

    Covers all of GL3(Z/p^k), p^k <= oracle.INT64_CEILING; a violation is an
    invertible matrix whose five sub-permanents P11, P12, P13, P21, P22 are
    all divisible by p. The scan is the class census's: it pairs an orbit of
    rows under unit column scaling and column permutation (a sorted triple of
    divisors of p^k) with an orbit of rows under unit scaling, each under the
    six column orderings, and reads each pair twice. As rows 2 and 3 it
    counts the matrices with a unit among P11, P12 and P13; as rows 3 and 1
    it counts the others, with row 2 over the rows that keep P11, P12 and P13
    divisible by p, the image of a lattice map counted p^2 times over.
    Scaling any row or any column by a unit scales each sub-permanent by a
    unit or not at all, and the determinant by a unit, so every member of an
    orbit is a violation exactly when its representative is; each
    representative is weighted by the size of what it stands for. The
    report's scanned count is therefore still every matrix covered, and
    equals |GL3(Z/p^k)|.
    """
    counts, violations = oracle._class_scan(p, k, threads=threads, progress=progress)
    return EmptinessReport(p=p, k=k, scanned=int(counts.sum()) + violations, violations=violations)


class _Held:
    """Arrays held from batch to batch, one per name, handed out as views of each batch's shape.

    held(name, shape, dtype) is the first prod(shape) elements of the flat
    array held under name, reshaped to shape. The array is allocated on the
    first call for its name, and again only when a call needs more elements
    or another dtype, so a caller that asks at most the batch bound of each
    name writes every batch into the same memory through numpy's out=. A
    view is valid until the next call for its name.
    """

    def __init__(self):
        self.arrays: dict = {}

    def __call__(self, name, shape: tuple[int, ...], dtype) -> np.ndarray:
        size = math.prod(shape)
        a = self.arrays.get(name)
        if a is None or a.size < size or a.dtype != dtype:
            a = self.arrays[name] = np.empty(size, dtype)
        return a[:size].reshape(shape)


def zero_perm_members(p: int, k: int, prefixes: range | None = None, held: _Held | None = None):
    """The members of G(p^k, 0) over the given prefixes, in grid batches.

    prefixes is a range of prefix indices in [0, n^6), by default all of
    them; prefix r has the base-n digits of r, least significant first, as
    six entries, which two grids read differently. The head grid
    (_head_grid) reads them as rows 2 and 3 and solves row 1; it lists the
    members with a unit among P11, P12, P13, 87% of G(9, 0). The left-over
    grid (_leftover_grid) reads them as rows 1 and 3 and solves row 2; it
    lists the members with none, whose pivot is in row 2. So each member of
    G(p^k, 0) is listed once, over one prefix of one grid, and nothing else
    is, with no reduction by symmetry. The prefixes go in blocks of
    _block_prefixes(n), about 2 oracle._CHUNK / n^2 prefixes, one block at
    a time and in order; the blocks are the population's only split. The
    digits of each block are listed once, and both grids run on them in
    turn: the head grid's block tables are freed before the left-over grid
    builds its own. Each grid forms its per-prefix basis over each half of
    the block (_in_halves), which bounds the basis's intermediates, and
    cuts its batches from the whole block, so that few batches are partly
    full and the numpy calls per member stay few.

    A batch is a list of the nine row-major entries: the solved row's three
    are (L, G) arrays, the L members over each prefix down its column, and
    the other six (1, G) arrays, one prefix to a column, so that numpy's
    inner loops run along a row of G prefixes rather than along the L
    members of one. The entries are of _member_type(p^k), the narrowest
    unsigned type that holds 3 (n - 1)^2: every value the grids form from
    them is a sum of at most two products of residues mod n. What negates
    or subtracts, the grids' per-prefix bases, runs in the signed
    oracle._kernel_type(p^k) and reaches the batches as residues. Each batch
    holds whole prefixes of one block, and every member of a batch has one
    label, the same pivot and the same pivot inverse per prefix: a head
    batch at most 4 oracle._BLOCK members, a left-over batch at most
    2 oracle._BLOCK, or one prefix's members if they are more.

    The solved row's arrays are written through numpy's out= into arrays
    of held, the names ("solved", 0), ("solved", 1), ("solved", 2) and
    "scratch", or of a _Held of its own per batch when held is None. With a
    shared held, a batch is valid until the next is taken, and the caller
    may use "scratch" in between; that is how verify.shift_round_trip
    keeps every batch in the same memory.
    """
    n = p**k
    prefixes = range(n**6) if prefixes is None else prefixes
    if prefixes.step != 1 or prefixes.start < 0 or prefixes.stop > n**6:
        raise ValueError(f"prefixes must be a step-1 range within [0, {n**6}), got {prefixes}")
    grids = (_head_grid(p, k, held), _leftover_grid(p, k, held))
    return (batch for block in _prefix_blocks(n, prefixes) for batches in grids for batch in batches(block))


def _member_type(n: int) -> type[np.unsignedinteger]:
    """The narrowest unsigned numpy integer type that holds 3 (n - 1)^2, the members' type mod n.

    Every value that the grids and verify._shift_verify form from member
    entries is a sum of at most three products of residues mod n, so it
    lies in [0, 3 (n - 1)^2]. That is uint8 up to n = 10, every n the
    population scan runs at (its n^8 scan budget), and wider past it.
    numpy wraps unsigned arrays silently, so whatever negates or subtracts
    stays in oracle._kernel_type(n).
    """
    return np.min_scalar_type(3 * (n - 1) ** 2).type


def _block_prefixes(n: int) -> int:
    """Prefixes per block of zero_perm_members: oracle._CHUNK // (n^2 // 2), each at least one."""
    return max(1, oracle._CHUNK // max(1, n**2 // 2))


def _prefix_blocks(n: int, prefixes: range):
    """The six base-n digits, in _member_type(n), of each block of _block_prefixes(n) prefixes.

    Each grid widens them to oracle._kernel_type(n) for its basis
    (_in_halves), so that a block holds only its member-type digits between
    the two grids.
    """
    step = _block_prefixes(n)
    for start in range(prefixes.start, prefixes.stop, step):
        block = range(start, min(start + step, prefixes.stop))
        yield [v.astype(_member_type(n)) for v in oracle._digits(block, n, 6)]


def _in_halves(basis, entries, p: int, k: int):
    """basis(prefix, p, k) over each half of a block's digits, widened to oracle._kernel_type(n), joined.

    A basis holds a few dozen per-prefix intermediates at once, so halves
    bound them at those of about oracle._CHUNK / n^2 prefixes; the halves'
    per-prefix tables, about ten bytes a prefix, are joined along the
    prefix axis.
    """
    half = -(-entries[0].size // 2)
    parts = [
        basis([v[i : i + half].astype(oracle._kernel_type(p**k)) for v in entries], p, k)
        for i in range(0, entries[0].size, half)
    ]
    return [np.concatenate(tables, axis=-1) for tables in zip(*parts)]


def _head_grid(p: int, k: int, held: _Held | None):
    """The members with a unit among P11, P12, P13, by solving row 1 over each prefix (rows 2 and 3).

    Over a prefix, the permanent and the determinant are the linear forms
    (A, B, C) = (P11, P12, P13) and (D, E, F) of matrices.forms in row 1.
    Let c be the first coordinate whose coefficient u is a unit mod p (the
    head label), c1 < c2 the other two and q1, q2 their coefficients. The
    rows of permanent 0 are then the n^2 rows y K1 + z K2 mod n,
    0 <= y, z < n, with K1 = e_c1 - u^-1 q1 e_c and K2 = e_c2 - u^-1 q2 e_c.
    On them the determinant is y d1 + z d2, d_i = (D, E, F) . K_i, a unit
    exactly when it is not 0 mod p (_member_basis). The axis t is y, or z
    where only d2 is a unit mod p, and s is the other; a prefix where
    neither is has no member. For each s, the determinant is 0 mod p on one
    residue class of t mod p, a s with a = -d_s / d_t mod p, so
    t = p q + ((a s + r) mod p), 1 <= r < p and 0 <= q < n / p, lists
    exactly the members: (p - 1) n^2 / p per prefix. K1 and K2 are one-hot
    away from c, so row 1 holds y and z themselves at c1 and c2, read off
    per-call tables by the prefix's slope a and axis, and is formed and
    reduced mod n at c alone, from two products of residues. Prefixes go
    into batches of at most 4 oracle._BLOCK members by head label, which is
    every member's label and the row-1 position of its pivot, sorted by
    (a, axis) within a block, so that a batch repeats each table column
    over a run of prefixes. Row 1 at c1 and c2 is taken from those columns,
    and at c formed, into the arrays of held (see zero_perm_members).

    Returns the function that lists one block's batches from its digits
    (_prefix_blocks).
    """
    n = p**k
    dtype = _member_type(n)
    # one (L, 1) column per coordinate: a member over each prefix to a row
    pq, r, s = np.indices((n // p, p - 1, n), dtype=dtype).reshape(3, -1, 1)
    pq *= p
    r += 1
    # t for each slope a, (L, p), and row 1 at c1 and c2 for each key a + p swap, (L, 2p)
    t = pq + mod(np.arange(p, dtype=dtype) * mod(s, p) + r, p)
    s = np.broadcast_to(s, t.shape)
    y, z = np.concatenate([t, s], axis=1), np.concatenate([s, t], axis=1)
    per = max(1, 4 * oracle._BLOCK // t.shape[0])  # prefixes per batch

    def batches(entries):
        head, key, scale = _in_halves(_member_basis, entries, p, k)
        scale = scale.astype(dtype)  # residues mod n
        for c in range(3):
            c1, c2 = (i for i in range(3) if i != c)
            sel = np.flatnonzero(head == c)
            sel = sel[np.argsort(key[sel], kind="stable")]
            for i in range(0, sel.size, per):
                at = sel[i : i + per]
                h, shape = _Held() if held is None else held, (t.shape[0], at.size)
                row1 = [h(("solved", j), shape, dtype) for j in range(3)]
                ends = np.cumsum(np.bincount(key[at], minlength=2 * p)).tolist()
                for j, run in enumerate(zip([0, *ends], ends)):  # the run of prefixes of key j
                    row1[c1][:, slice(*run)], row1[c2][:, slice(*run)] = y[:, j, None], z[:, j, None]
                scratch = np.multiply(row1[c1], scale[0, at], out=h("scratch", shape, dtype))
                scratch += np.multiply(row1[c2], scale[1, at], out=row1[c])
                mod(scratch, n, out=row1[c])
                yield [*row1, *(e[None, at] for e in entries)]

    return batches


def _member_basis(prefix, p: int, k: int):
    """Per prefix (rows 2 and 3): the head label c, the key a + p swap and the entries of K1 and K2 at c.

    As set out in _head_grid. The head label is 3 where the prefix has no
    member: no unit among P11, P12, P13, or neither d1 nor d2 a unit mod
    p. swap is 1 where d1 is not, so that z is the axis, and a is the
    slope -d_s / d_t mod p. scale holds the entries of K1 and K2 at c, (2,
    prefix), as residues mod n of the prefix's type, oracle._kernel_type(n):
    they are formed by negation, which an unsigned type would wrap, and the
    grid casts them to the member type once per block. A function, so that
    the block's intermediates are freed before its batches are built.
    """
    n = p**k
    A, B, C, D, E, F = forms(prefix[0:3], prefix[3:6], n)
    head, u = first_unit((A, B, C), p)  # c, and its coefficient u
    # per prefix, the coefficients at c1 and c2, and the determinant's at c (any where there is no unit)
    first, last = head == 0, head == 2
    q1, q2 = np.where(first, B, A), np.where(last, B, C)
    d_c, d_c1, d_c2 = np.where(first, D, np.where(last, F, E)), np.where(first, E, D), np.where(last, E, F)
    head = head + (mod(u, p) == 0)  # 3 where there is no unit
    minus_inv_u = -oracle._inverse_table(n).take(u)
    scale = np.stack([mod(minus_inv_u * q1, n), mod(minus_inv_u * q2, n)])
    d1, d2 = mod(d_c1 + scale[0] * d_c, p), mod(d_c2 + scale[1] * d_c, p)
    swap = d1 == 0
    d_t, d_s = np.where(swap, d2, d1), np.where(swap, d1, d2)
    head[d_t == 0] = 3
    key = mod(-d_s * oracle._inverse_table(n).take(d_t), p) + p * swap
    return head, key, scale


def _leftover_grid(p: int, k: int, held: _Held | None):
    """The members with no unit among P11, P12, P13, by solving row 2 over each prefix (rows 1 and 3).

    (P11, P12, P13) = S r2 with S = [[0, a33, a32], [a33, 0, a31],
    [a32, a31, 0]], and det S = 2 a31 a32 a33. So for odd p a member needs
    r3 to have one or two entries that are not 0 mod p, and then r2 is
    mu w mod p, 1 <= mu < p, with w spanning the kernel of S mod p
    (_leftover_basis). Along row 2 the permanent and the determinant are
    the linear forms Q = (P21, P22, P23) and D of forms(row 3, row 1). Let
    c be the first of P21, P22 that is a unit mod p: it is each member's
    label - 3, its pivot column and the coordinate solved for. The members
    are r2_a = mu w_a + p u_a and r2_2 = mu w_2 + p u_2 mod n, with a the
    other of 0 and 1 and 0 <= u_a, u_2 < p^(k - 1), and r2_c solved from
    Q . r2 = 0 mod n, two products of residues reduced mod n. That lists
    every member exactly when Q . w = 0 and D . w != 0 mod p,
    (p - 1) p^(2(k - 1)) of them per prefix, and a prefix where either
    fails has none. Prefixes go into batches of at most 2 oracle._BLOCK
    members by c. Row 2 is formed into the arrays of held (see
    zero_perm_members).

    Returns the function that lists one block's batches from its digits
    (_prefix_blocks).
    """
    n = p**k
    dtype = _member_type(n)
    mu = np.arange(1, p, dtype=dtype)[:, None]
    lift = p * np.indices((n // p, n // p), dtype=dtype).reshape(2, 1, -1, 1)  # p u_a and p u_2
    size = (p - 1) * lift[0].size  # members per prefix
    per = max(1, 2 * oracle._BLOCK // size)  # prefixes per batch

    def batches(entries):
        col, w, solve = _in_halves(_leftover_basis, entries, p, k)
        w, solve = w.astype(dtype), solve.astype(dtype)  # residues mod p and mod n
        for c in (0, 1):
            a = 1 - c
            sel = np.flatnonzero(col == c)
            for i in range(0, sel.size, per):
                at = sel[i : i + per]
                h, shape = _Held() if held is None else held, (size, at.size)
                row2 = [h(("solved", j), shape, dtype) for j in range(3)]
                for j, u in zip((a, 2), lift):
                    np.add(mod(mu * w[j, at], p)[:, None], u, out=row2[j].reshape(p - 1, -1, at.size))
                scratch = np.multiply(solve[0, at], row2[a], out=h("scratch", shape, dtype))
                scratch += np.multiply(solve[1, at], row2[2], out=row2[c])
                mod(scratch, n, out=row2[c])
                yield [*(e[None, at] for e in entries[0:3]), *row2, *(e[None, at] for e in entries[3:6])]

    return batches


def _leftover_basis(prefix, p: int, k: int):
    """Per prefix (rows 1 and 3): the pivot column c, the kernel vector w mod p and the solve for r2_c.

    As set out in _leftover_grid. w is r3 mod p with the last of its
    entries that are not 0 mod p negated, which spans the kernel of S mod
    p when r3 has one or two such entries. c is 2 where the prefix has no
    member: S w, Q . w or D . w fails, or neither P21 nor P22 is a unit
    mod p. solve holds -P2c^-1 times the coefficients of r2_a and r2_2 in
    Q, mod n. Everything is of the prefix's type, oracle._kernel_type(n):
    w and solve are formed by negation, which an unsigned type would wrap,
    and the grid casts them, as residues, to the member type once per
    block.
    """
    n = p**k
    r1, r3 = prefix[0:3], prefix[3:6]
    r3p = [mod(v, p) for v in r3]
    last = ((r3p[1] == 0) & (r3p[2] == 0), r3p[2] == 0, True)  # no later entry is a unit
    w = np.stack([mod(np.where(neg, -v, v), p) for v, neg in zip(r3p, last)])
    coeffs = forms(r3, r1, n)  # P21, P22, P23 and row 2's determinant coefficients
    col, pivot = first_unit(coeffs[:2], p)
    qw, dw = expand(coeffs, w, p)
    live = (qw == 0) & (dw != 0) & (mod(pivot, p) != 0)
    (a31, a32, a33), (w1, w2, w3) = r3p, w
    # S w, from the products of its off-diagonal entries: S has a zero diagonal
    for sw in (a33 * w2 + a32 * w3, a33 * w1 + a31 * w3, a32 * w1 + a31 * w2):
        live &= mod(sw, p) == 0
    col[~live] = 2
    minus_inv = -oracle._inverse_table(n).take(pivot)
    solve = np.stack([mod(minus_inv * (coeffs[0] + coeffs[1] - pivot), n), mod(minus_inv * coeffs[2], n)])
    return col, w, solve
