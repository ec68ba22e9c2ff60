"""Executable forms of the structural arguments behind the counts.

psi_shift realizes the entry-shift bijections between permanent classes,
project is the entrywise reduction from Z/p^k to Z/p, fiber_count verifies the
lift-fiber size by enumeration, witness builds explicit members of the five
sub-permanent classes, and emptiness_scan exhaustively confirms that no
invertible matrix escapes those five classes.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .matrices import (
    CLASS_LABELS,
    ClassLabel,
    Mat3,
    classify,
    is_invertible,
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

    Scans all of GL3(Z/p^k); a violation is an invertible matrix whose five
    sub-permanents P11, P12, P13, P21, P22 are all divisible by p.
    """
    counts, violations = oracle._class_scan(p, k, threads=threads, progress=progress, limit=limit)
    return EmptinessReport(p=p, k=k, scanned=int(counts.sum()) + violations, violations=violations)
