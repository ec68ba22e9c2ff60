"""Dense 3x3 and 2x2 matrices over Z/n.

Provides the permanent/determinant/sub-permanent kernel that every census,
scan and check calls, the Mat3/Mat2 wrappers around it, and the
classification of an invertible matrix by the first sub-permanent (in the
order P11, P12, P13, P21, P22) that is a unit mod p, one matrix at a time
(classify) or per entry of arrays (first_unit). Matrices are immutable
value types; maps that modify entries return new matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .modring import Modulus, Residue, factorize, is_prime

Rows3 = tuple[tuple[int, int, int], tuple[int, int, int], tuple[int, int, int]]
Rows2 = tuple[tuple[int, int], tuple[int, int]]

# Seed of verify's sampled matrices when the caller gives none. It lives here,
# in a module the command line loads for every subcommand, so that verify's
# --help shows it without loading verify.
DEFAULT_SEED = 0x5EED


class ClassLabel(Enum):
    """Position of the first unit sub-permanent, or NON_INVERTIBLE.

    The scan order is P11, P12, P13, P21, P22; an invertible matrix always has
    a unit among those five (checked exhaustively by the emptiness scan), so
    the five C labels partition every GL3(Z/p^k).
    """

    C11 = (1, 1)
    C12 = (1, 2)
    C13 = (1, 3)
    C21 = (2, 1)
    C22 = (2, 2)
    NON_INVERTIBLE = (0, 0)

    @property
    def pivot(self) -> tuple[int, int]:
        """1-based (row, column) of the pivot sub-permanent."""
        if self is ClassLabel.NON_INVERTIBLE:
            raise ValueError("a non-invertible matrix has no pivot sub-permanent")
        return self.value

    def __str__(self) -> str:
        return self.name


CLASS_LABELS = (
    ClassLabel.C11,
    ClassLabel.C12,
    ClassLabel.C13,
    ClassLabel.C21,
    ClassLabel.C22,
)


@dataclass(frozen=True)
class Mat3:
    """A 3x3 matrix of canonical residues mod a shared modulus."""

    rows: Rows3
    modulus: Modulus

    def __post_init__(self) -> None:
        n = self.modulus.n
        rows = tuple(tuple(v % n for v in row) for row in self.rows)
        if len(rows) != 3 or any(len(r) != 3 for r in rows):
            raise ValueError("Mat3 needs exactly 3 rows of 3 entries")
        object.__setattr__(self, "rows", rows)

    def entry(self, i: int, j: int) -> int:
        """Entry at 1-based position (i, j)."""
        return self.rows[i - 1][j - 1]

    def with_entry(self, i: int, j: int, value: int) -> "Mat3":
        """Copy of this matrix with the 1-based (i, j) entry replaced."""
        rows = [list(r) for r in self.rows]
        rows[i - 1][j - 1] = value % self.modulus.n
        return Mat3(tuple(tuple(r) for r in rows), self.modulus)

    def transpose(self) -> "Mat3":
        return Mat3(tuple(zip(*self.rows)), self.modulus)


@dataclass(frozen=True)
class Mat2:
    """A 2x2 matrix of canonical residues mod a shared modulus."""

    rows: Rows2
    modulus: Modulus

    def __post_init__(self) -> None:
        n = self.modulus.n
        rows = tuple(tuple(v % n for v in row) for row in self.rows)
        if len(rows) != 2 or any(len(r) != 2 for r in rows):
            raise ValueError("Mat2 needs exactly 2 rows of 2 entries")
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class SubPermanents:
    """The five leading sub-permanents of a 3x3 matrix.

    P_ij is the permanent of the 2x2 submatrix left after deleting row i and
    column j; only (1,1), (1,2), (1,3), (2,1), (2,2) are ever needed here.
    """

    p11: Residue
    p12: Residue
    p13: Residue
    p21: Residue
    p22: Residue

    def ordered(self) -> tuple[Residue, Residue, Residue, Residue, Residue]:
        """Values in the classification scan order."""
        return (self.p11, self.p12, self.p13, self.p21, self.p22)


def mat3(rows, n: int) -> Mat3:
    return Mat3(tuple(tuple(r) for r in rows), factorize(n))


def mat2(rows, n: int) -> Mat2:
    return Mat2(tuple(tuple(r) for r in rows), factorize(n))


def parse_mat3(text: str, n: int) -> Mat3:
    """Parse the row-major literal syntax, e.g. "1,0,0;2,1,2;1,1,1"."""
    try:
        rows = tuple(
            tuple(int(v.strip()) for v in row.split(",")) for row in text.split(";")
        )
    except ValueError as exc:
        raise ValueError(f"bad matrix literal {text!r}") from exc
    if len(rows) != 3 or any(len(r) != 3 for r in rows):
        raise ValueError(f"matrix literal {text!r} is not 3 rows of 3 entries")
    return mat3(rows, n)


def format_mat3(m: Mat3) -> str:
    return ";".join(",".join(str(v) for v in row) for row in m.rows)


# The kernel. Entries are row-major (a11, a12, ..., a33) and only + - * // are
# used, so the same code runs exactly on Python ints (any n) and vectorized on
# broadcastable numpy integer arrays. There, pass the small arrays as rows 2
# and 3: their minors are formed before anything is broadcast.


def mod(a, n, out=None):
    """a mod n in [0, n) for n >= 1: the value of a % n, computed as a - (a // n) n.

    Both are floor division, so the two agree on Python ints and on numpy
    integer arrays of any sign. numpy divides an integer array by a scalar
    with SIMD but takes its remainder element by element, several times
    slower. The product and the difference are formed in place on the
    quotient, so this holds no more arrays at once than a % n. (a // n) n
    lies within n - 1 of a, so no intermediate exceeds |a| + n - 1 in
    magnitude. An unsigned array has no -n, so there the multiple is
    subtracted from a instead: (a // n) n <= a, so nothing wraps. Given
    out, an array of a's type and shape other than a itself, the quotient
    is formed there and the residue returned in it, so nothing is allocated.
    """
    r = a // n if out is None else np.floor_divide(a, n, out=out)
    if isinstance(r, np.ndarray) and r.dtype.kind == "u":
        r *= n
        return np.subtract(a, r, out=r)
    r *= -n
    r += a
    return r


def forms(r1, r2, n):
    """Third-row coefficients (A, B, C, D, E, F) of the rows r1, r2.

    With r1 = (a, b, c) and r2 = (d, e, f), expansion along the third row
    (x, y, z) gives perm = Ax + By + Cz and det = Dx + Ey + Fz. Every
    coefficient is bilinear in r1 and r2.
    """
    a, b, c = r1
    d, e, f = r2
    return (
        mod(b * f + c * e, n),
        mod(a * f + c * d, n),
        mod(a * e + b * d, n),
        mod(b * f - c * e, n),
        mod(c * d - a * f, n),
        mod(a * e - b * d, n),
    )


def expand(coeffs, row, n):
    """(perm, det) mod n of the matrix with first row row, given coeffs = forms(row 2, row 3, n).

    That is the third-row expansion of the cyclic shift (row 2, row 3, row 1),
    which has the same permanent and determinant.
    """
    A, B, C, D, E, F = coeffs
    x, y, z = row
    return mod(A * x + B * y + C * z, n), mod(D * x + E * y + F * z, n)


def perm_det(e, n):
    """(perm, det) mod n of the entries e, expanded along row 1 over forms(row 2, row 3)."""
    return expand(forms(e[3:6], e[6:9], n), e[0:3], n)


def perm_det_subperms(e, n):
    """(perm, det, P11, P12, P13, P21, P22) mod n of the row-major entries e.

    One forms(row 2, row 3) call gives the expansion along row 1, as in
    perm_det, and its A, B, C are P11, P12, P13; only P21 and P22 are
    formed on their own.
    """
    a11, a12, a13 = e[0:3]
    a31, a32, a33 = e[6:9]
    coeffs = forms(e[3:6], e[6:9], n)
    return (
        *expand(coeffs, e[0:3], n),
        *coeffs[:3],
        mod(a12 * a33 + a13 * a32, n),
        mod(a11 * a33 + a13 * a31, n),
    )


def first_unit(subs, p):
    """Per entry: the index and value of the first of the arrays subs that is a unit mod p.

    An entry with no unit among subs gets the last index and value. On the
    five sub-permanents in scan order the index (0..4 for P11, P12, P13,
    P21, P22) is the class label and the row-major position of the pivot
    entry. The index is int8; widen it before it takes part in a key. On
    unsigned arrays pivot - subs[i] wraps, but the select is still exact:
    arithmetic mod 2^bits is a ring, so the select's value is congruent to
    the kept entry, and both lie in the type's range.
    """
    lab, pivot = np.full(np.shape(subs[-1]), len(subs) - 1, dtype=np.int8), subs[-1]
    for i in range(len(subs) - 2, -1, -1):
        # a select by arithmetic: keep (lab, pivot) where subs[i] is not a unit, else take (i, subs[i])
        off = mod(subs[i], p) == 0
        lab = off * (lab - i) + i
        pivot = off * (pivot - subs[i]) + subs[i]
    return lab, pivot


def perm_det2(e, n):
    """(perm, det) mod n of the row-major 2x2 entries e."""
    a, b, c, d = e
    return mod(a * d + b * c, n), mod(a * d - b * c, n)


def _entries(m: Mat3 | Mat2) -> list[int]:
    return [v for row in m.rows for v in row]


def permanent3(m: Mat3) -> Residue:
    return Residue(perm_det(_entries(m), m.modulus.n)[0], m.modulus)


def determinant3(m: Mat3) -> Residue:
    return Residue(perm_det(_entries(m), m.modulus.n)[1], m.modulus)


def permanent2(m: Mat2) -> Residue:
    return Residue(perm_det2(_entries(m), m.modulus.n)[0], m.modulus)


def determinant2(m: Mat2) -> Residue:
    return Residue(perm_det2(_entries(m), m.modulus.n)[1], m.modulus)


def sub_permanents(m: Mat3) -> SubPermanents:
    subs = perm_det_subperms(_entries(m), m.modulus.n)[2:]
    return SubPermanents(*(Residue(v, m.modulus) for v in subs))


def is_invertible(m: Mat3) -> bool:
    """True iff det(m) is a unit mod the matrix modulus."""
    return math.gcd(determinant3(m).value, m.modulus.n) == 1


def classify(m: Mat3, p: int) -> ClassLabel:
    """Label m by its first unit sub-permanent mod the prime p.

    The matrix modulus must be a multiple of p (typically p^k); entries are
    reduced mod p before testing. Returns NON_INVERTIBLE when det(m) is 0
    mod p.
    """
    if not is_prime(p):
        raise ValueError(f"classification needs a prime, got {p}")
    if m.modulus.n % p != 0:
        raise ValueError(f"p={p} does not divide the matrix modulus {m.modulus.n}")
    _, det, *subs = perm_det_subperms(_entries(m), p)
    if det == 0:
        return ClassLabel.NON_INVERTIBLE
    for label, sub in zip(CLASS_LABELS, subs):
        if sub:
            return label
    raise RuntimeError(
        f"invertible matrix {format_mat3(m)} mod {p} has no unit sub-permanent; "
        "this contradicts the five-class decomposition"
    )
