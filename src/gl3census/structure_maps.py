"""Executable forms of the structural arguments behind the counts.

psi_shift realizes the entry-shift bijections between permanent classes,
project is the entrywise reduction from Z/p^k to Z/p, fiber_count verifies the
lift-fiber size by enumeration, witness builds explicit members of the five
sub-permanent classes, and emptiness_scan exhaustively confirms that no
invertible matrix escapes those five classes. zero_perm_members lists all of
G(p^k, 0) by solving the permanent's linear form in the third row.
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


def fiber_count(
    a: Mat3, p: int, k: int, *, progress=None, limit: int = oracle.TIERED_LIMIT
) -> int:
    """Entrywise lifts of a to Z/p^k that are invertible with permanent divisible by p.

    Enumerates all p^(9(k-1)) lifts rather than assuming the fiber is full;
    the point is verification. Requires a to be invertible mod p with
    permanent 0 mod p.
    """
    if not is_prime(p) or a.modulus.n != p:
        raise ValueError(f"base matrix must live over Z/p for a prime p, got {a.modulus.n}")
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    if permanent3(a).value != 0 or not is_invertible(a):
        raise ValueError("base matrix must be invertible with permanent 0 mod p")
    n = p**k
    if n > limit:
        raise oracle.CensusTooLarge("fiber_count", n, limit)
    q = p ** (k - 1)
    total = q**9
    flat = [v for row in a.rows for v in row]
    unit = oracle._unit_mask(n)
    found = 0
    for start in range(0, total, 1 << 20):
        stop = min(start + (1 << 20), total)
        t = oracle._digits(range(start, stop), q, 9)
        perm, det = perm_det([f + p * d for f, d in zip(flat, t)], n)
        found += int((unit[det] & (perm % p == 0)).sum())
        if progress is not None:
            progress(stop, total)
    return found


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


def emptiness_scan(
    p: int, k: int = 1, *, threads: int = 1, progress=None, limit: int = oracle.TIERED_LIMIT
) -> EmptinessReport:
    """Exhaustively confirm every invertible matrix mod p^k has a unit sub-permanent.

    Covers all of GL3(Z/p^k); a violation is an invertible matrix whose five
    sub-permanents P11, P12, P13, P21, P22 are all divisible by p. The scan
    is the class census's: it evaluates one prefix (rows 2 and 3) per pair of
    row orbits under unit scaling, and, where P11, P12 and P13 are all
    divisible by p, one first row per orbit. Scaling any row by a unit
    scales each sub-permanent by a unit or not at all, and the determinant
    by a unit, so every member of an orbit is a violation exactly when its
    representative is; each representative is weighted by the size of what
    it stands for. The report's scanned count is therefore still every
    matrix covered, and equals |GL3(Z/p^k)|.
    """
    counts, violations = oracle._class_scan(p, k, threads=threads, progress=progress, limit=limit)
    return EmptinessReport(p=p, k=k, scanned=int(counts.sum()) + violations, violations=violations)


def zero_perm_members(p: int, k: int):
    """Every member of G(p^k, 0), in (9, m) batches of row-major entries.

    The entries are of oracle._kernel_type(p^k), the narrowest type that
    holds the kernel's arithmetic; blocks of prefixes span at most
    oracle._CHUNK third-row candidates.

    Over a prefix (rows 1 and 2), the permanent and the determinant are the
    linear forms (A, B, C) and (D, E, F) of matrices.forms in the third row.
    Let p^v be the gcd of A, B, C and n = p^k, c the first coordinate whose
    coefficient has valuation v, that coefficient p^v u (u a unit) and the
    other two p^v q1, p^v q2, at coordinates c1 < c2. The third rows of
    permanent 0 are then the n^2 p^v distinct rows y K1 + z K2 + j K3 mod n,
    0 <= y, z < n and 0 <= j < p^v, with K1 = e_c1 - u^-1 q1 e_c,
    K2 = e_c2 - u^-1 q2 e_c and K3 = (n / p^v) e_c. On them the determinant
    is the linear form y D.K1 + z D.K2 + j D.K3, so the unit filter runs on
    (y, z, j) before any member is built. Every value stays within
    3 (n - 1)^2.
    """
    n = p**k
    dtype = oracle._kernel_type(n)
    val = np.array([max(t for t in range(k + 1) if r % p**t == 0) for r in range(n)])
    power = (p ** np.arange(k + 1)).astype(dtype)
    inv = oracle._inverse_table(n, dtype)
    eye = np.eye(3, dtype=dtype)
    y, z = np.arange(n, dtype=dtype)[:, None, None], np.arange(n, dtype=dtype)[None, :, None]
    step = max(1, oracle._CHUNK // n**3)
    for start in range(0, n**6, step):
        rows = range(start, min(start + step, n**6))
        prefix = [v.astype(dtype) for v in oracle._digits(rows, n, 6)]
        coeffs = forms(prefix[0:3], prefix[3:6], n)
        vals = [val[c] for c in coeffs[:3]]
        v = np.minimum(np.minimum(vals[0], vals[1]), vals[2])
        c = np.where(vals[0] == v, 0, np.where(vals[1] == v, 1, 2))
        c1, c2 = np.where(c == 0, 1, 0), np.where(c == 2, 1, 2)
        pv = power[v]
        u, q1, q2 = (np.choose(i, coeffs[:3]) // pv for i in (c, c1, c2))
        basis = [
            (eye[c1] + mod(-inv[u] * q1, n)[:, None] * eye[c]).T,
            (eye[c2] + mod(-inv[u] * q2, n)[:, None] * eye[c]).T,
            (mod(n // pv, n)[:, None] * eye[c]).T,
        ]
        dets = [mod(coeffs[3] * K[0] + coeffs[4] * K[1] + coeffs[5] * K[2], n) for K in basis]
        live = (mod(dets[0], p) != 0) | (mod(dets[1], p) != 0) | (mod(dets[2], p) != 0)
        for w in range(k + 1):
            sel = np.flatnonzero(live & (v == w))
            if sel.size == 0:
                continue
            j = np.arange(p**w, dtype=dtype)[None, None, :]

            def on_grid(coef):
                # coef[0] y + coef[1] z + coef[2] j: prefixes sel on axis 0, then y, z, j
                a, b, d = (t[sel, None, None, None] for t in coef)
                return y * a + z * b + j * d

            unit = mod(on_grid(dets), p) != 0
            third = [mod(on_grid([K[i] for K in basis]), n)[unit] for i in range(3)]
            counts = unit.sum(axis=(1, 2, 3))
            yield np.stack([np.repeat(r[sel], counts) for r in prefix] + third)
