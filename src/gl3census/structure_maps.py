"""Executable forms of the structural arguments behind the counts.

psi_shift realizes the entry-shift bijections between permanent classes,
project is the entrywise reduction from Z/p^k to Z/p, fiber_count verifies the
lift-fiber size by enumeration, witness builds explicit members of the five
sub-permanent classes, and emptiness_scan exhaustively confirms that no
invertible matrix escapes those five classes. zero_perm_members lists all of
G(p^k, 0) by solving the permanent's linear form in the first row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import oracle
from .matrices import (
    CLASS_LABELS,
    ClassLabel,
    Mat3,
    classify,
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
    return int(oracle._sum_jobs(_fiber_job, jobs, 1, progress))


def _fiber_job(args):
    """Lifts start..stop-1 of fiber_count that are invertible with permanent divisible by p.

    Lift t adds p times the base-p^(k - 1) digits of t, in _kernel_type(n), to the base matrix's entries.
    """
    flat, p, k, start, stop = args
    n = p**k
    t = oracle._digits(range(start, stop), p ** (k - 1), 9)
    perm, det = perm_det([f + p * d.astype(oracle._kernel_type(n)) for f, d in zip(flat, t)], n)
    return int((oracle._unit_mask(n).take(det) & (perm % p == 0)).sum())


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
    all divisible by p. The scan is the class census's: it evaluates one
    prefix (rows 2 and 3) per pair of a row-2 orbit under unit column scaling
    (an ordered triple of divisors of p^k) and a row-3 orbit under unit
    scaling, and, where P11, P12 and P13 are all divisible by p, one first
    row per orbit under unit scaling.
    Scaling any row or any column by a unit scales each sub-permanent by a
    unit or not at all, and the determinant by a unit, so every member of an
    orbit is a violation exactly when its representative is; each
    representative is weighted by the size of what it stands for. The
    report's scanned count is therefore still every matrix covered, and
    equals |GL3(Z/p^k)|.
    """
    counts, violations = oracle._class_scan(p, k, threads=threads, progress=progress)
    return EmptinessReport(p=p, k=k, scanned=int(counts.sum()) + violations, violations=violations)


def zero_perm_members(p: int, k: int, prefixes: range | None = None):
    """The members of G(p^k, 0) over the given prefixes, in grid batches.

    prefixes is a range of prefix indices in [0, n^6), by default all of
    them; prefix r has the base-n digits of r, least significant first, as
    its six entries, rows 2 and 3. Row 1 is solved for. Every member has one
    prefix, so this lists each member of G(p^k, 0) once and nothing else,
    with no reduction by symmetry.

    A batch is a list of the nine row-major entries: the six of rows 2 and
    3 are (1, G) arrays, one prefix to a column, and the three of row 1
    (L, G) arrays, the L members over each prefix down its column, so that
    numpy's inner loops run along a row of G prefixes rather than along the
    L members of one. The
    entries are of oracle._kernel_type(p^k), the narrowest type that holds
    the kernel's arithmetic, and matrices.perm_det on a batch forms the
    minors of rows 2 and 3 once per prefix. The prefixes go in blocks of
    oracle._CHUNK // n^2 (at least one), verify.shift_round_trip's job
    split, whose per-prefix arrays are of that type too. A batch holds
    whole prefixes of one block: at most oracle._BLOCK members, or one
    prefix's (fewer than n^3, so oracle._BLOCK for n <= 40).

    Over a prefix, the permanent and the determinant are the linear forms
    (A, B, C) and (D, E, F) of matrices.forms in row 1. Let p^v be the gcd
    of A, B, C and n = p^k, c the first coordinate whose coefficient has
    valuation v, that coefficient p^v u (u a unit) and the other two
    p^v q1, p^v q2, at coordinates c1 < c2. The rows of permanent 0 are then
    the n^2 p^v distinct rows y K1 + z K2 + j K3 mod n, 0 <= y, z < n and
    0 <= j < p^v, with K1 = e_c1 - u^-1 q1 e_c, K2 = e_c2 - u^-1 q2 e_c and
    K3 = (n / p^v) e_c. On them the determinant is y d1 + z d2 + j d3, with
    d_i = (D, E, F) . K_i, and a unit exactly when it is not 0 mod p.

    Only members are enumerated. The axis is a coordinate whose d is a unit
    mod p: y, after swapping K1 and K2 where only d2 is; else j, which
    happens only at v = k, as n / p^v is a multiple of p below that; a
    prefix with neither has no member. For each value (s1, s2) of the other
    two coordinates, the determinant is 0 mod p on one residue class of the
    axis t mod p, a s1 + b s2 with (a, b) = -(d_s1, d_s2) / d_t mod p. So
    t = p q + ((a s1 + b s2 + r) mod p), 1 <= r < p and every q, lists
    exactly the members: (p - 1) n^2 p^(v - 1) per prefix. At v = 0, j is
    always 0 (p^0 = 1, and K3 = n e_c is 0 mod n), so it is left out.
    Prefixes go into batches by (v, axis), so that L is the same across a
    batch, and at v = 0 also by c, the head label: A, B, C are P11, P12,
    P13, so c indexes the first of them that is a unit mod p, and every
    member over the prefix has the label c and its pivot at coordinate c
    of row 1. At v > 0 none of them is a unit, and each member's pivot is
    in row 2. Every value stays within 3 (n - 1)^2.
    """
    n = p**k
    prefixes = range(n**6) if prefixes is None else prefixes
    if prefixes.step != 1 or prefixes.start < 0 or prefixes.stop > n**6:
        raise ValueError(f"prefixes must be a step-1 range within [0, {n**6}), got {prefixes}")
    dtype = oracle._kernel_type(n)
    inv = oracle._inverse_table(n)  # of the prefix's type; a unit's inverse mod n is its inverse mod p
    # (v, axis, head label): axis y, then j at v = k; the head label only at v = 0
    groups = [(0, 0, c) for c in range(3)] + [(w, 0, None) for w in range(1, k + 1)] + [(k, 2, None)]
    step = max(1, oracle._CHUNK // n**2)
    for start in range(prefixes.start, prefixes.stop, step):
        block = range(start, min(start + step, prefixes.stop))
        prefix = [v.astype(dtype) for v in oracle._digits(block, n, 6)]
        v, c, basis, d = _member_basis(prefix, p, k)
        for w, axis, head in groups:
            on_axis = d[0] != 0 if axis == 0 else (d[0] == 0) & (d[2] != 0)
            sel = (v == w) & on_axis
            if head is not None:
                sel &= c == head
            sel = np.flatnonzero(sel)
            if not sel.size:
                continue
            size = [n, n, p**w]  # of y, z, j
            others = [i for i in range(3) if i != axis and size[i] > 1]
            shape = (size[axis] // p, p - 1, *(size[o] for o in others))
            # one (L, 1) column per coordinate: a member over each prefix to a row
            pq, r, *s = np.indices(shape, dtype=dtype).reshape(len(shape), -1, 1)
            pq *= p
            r += 1
            s_p = [mod(t, p) for t in s]
            slope = [mod(-d[o] * inv.take(d[axis]), p) for o in others]  # (a, b)
            per = max(1, oracle._BLOCK // pq.size)  # prefixes per batch
            for i in range(0, sel.size, per):
                at = sel[i : i + per]
                t = slope[0][at] * s_p[0]
                if len(slope) > 1:
                    t += slope[1][at] * s_p[1]
                t += r
                t = pq + mod(t, p)
                K = basis.take(at, axis=2)[:, :, None]  # (K_i, entry, 1, G)
                row1 = t * K[axis]
                del t  # not held while the batch is checked
                for o, g in zip(others, s):
                    row1 += g * K[o]
                row1 = mod(row1, n)
                yield [*row1, *(e[None, at] for e in prefix)]


def _member_basis(prefix, p: int, k: int):
    """Per prefix (rows 2 and 3): v, c, the basis K1, K2, K3 and its determinant coefficients mod p.

    c is the first coordinate whose coefficient has valuation v, the basis
    is (K_i, entry, prefix) and the coefficients d_i (i, prefix), as set out
    in zero_perm_members, with K1 and K2 swapped where d2 is a
    unit mod p and d1 is not. Selections are made by gathers and
    arithmetic. v is of the type of oracle._valuations, the cached table
    it is read from, and everything else of the prefix's type. A function,
    so that the block's intermediates are freed before its batches are
    built.
    """
    n = p**k
    dtype = prefix[0].dtype
    coeffs = forms(prefix[0:3], prefix[3:6], n)
    perm_c, det_c = np.stack(coeffs[:3]), np.stack(coeffs[3:])
    vals = oracle._valuations(p, k).take(perm_c)
    v = vals.min(axis=0)
    first, second = (vals[i] == v for i in (0, 1))
    c = (~first * (2 - second)).astype(dtype)  # the first coordinate of valuation v
    at = np.stack([c, (c == 0).astype(dtype), 2 - (c == 2).astype(dtype)])  # c, c1, c2
    hot = (np.arange(3, dtype=dtype)[:, None, None] == at).astype(dtype)  # hot[e, i]: entry e is at[i]
    pv = (p ** np.arange(k + 1)).astype(dtype).take(v)
    u, q1, q2 = (hot * perm_c[:, None]).sum(axis=0, dtype=dtype) // pv
    d_c, d_c1, d_c2 = (hot * det_c[:, None]).sum(axis=0, dtype=dtype)
    minus_inv_u = -oracle._inverse_table(n).take(u)
    scale = np.stack([mod(minus_inv_u * q1, n), mod(minus_inv_u * q2, n), mod(n // pv, n)])  # K_i at c
    at_c = hot[:, 0]
    basis = np.stack([hot[:, 1] + scale[0] * at_c, hot[:, 2] + scale[1] * at_c, scale[2] * at_c])
    d = np.stack([mod(d_c1 + scale[0] * d_c, p), mod(d_c2 + scale[1] * d_c, p), mod(scale[2] * d_c, p)])
    swap = ((d[0] == 0) & (d[1] != 0)).astype(dtype)
    basis[:2] += swap * (basis[1::-1] - basis[:2])
    d[:2] += swap * (d[1::-1] - d[:2])
    return v, c, basis, d
