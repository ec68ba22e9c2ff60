"""Closed-form counts of invertible 3x3 matrices over Z/n by permanent value.

count(n, x) is the number of matrices in GL3(Z/n) whose permanent is congruent
to x mod n. It is multiplicative over coprime factors, so everything reduces
to prime powers, and on a prime power to the two values at x = 0 and x = 1.
All arithmetic is exact; no result is ever rounded or estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .matrices import ClassLabel
from .modring import Modulus, factorize, is_prime, is_quadratic_residue


class BranchTag(Enum):
    """Which branch of the zero-permanent count applies at an odd prime p."""

    QR = "qr"  # p - 3 is a quadratic residue mod p
    NON_QR = "non-qr"

    def __str__(self) -> str:
        return self.value


def _require_prime(p: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")


def _require_odd_prime(p: int) -> None:
    _require_prime(p)
    if p == 2:
        raise ValueError("p = 2 is not supported here; only odd primes")


def gl3_order(p: int, k: int = 1) -> int:
    """Order of GL3(Z/p^k)."""
    _require_prime(p)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    return p ** (9 * (k - 1)) * (p**3 - 1) * (p**3 - p) * (p**3 - p**2)


def qr_branch(p: int) -> BranchTag:
    """Branch selector: QR iff p - 3 is a (nonzero) quadratic residue mod p."""
    _require_odd_prime(p)
    return BranchTag.QR if is_quadratic_residue(p - 3, p) else BranchTag.NON_QR


def count2_prime(p: int, x: int) -> int:
    """2x2 analogue at an odd prime: matrices in GL2(Z/p) with permanent x."""
    _require_odd_prime(p)
    if x % p == 0:
        return (p - 1) ** 3
    return (p - 1) * (p * p + 1)


def count_prime_zero(p: int) -> int:
    """Invertible 3x3 matrices mod a prime p with permanent 0."""
    _require_prime(p)
    if p == 2:
        return 0
    if qr_branch(p) is BranchTag.QR:
        return p * (p - 1) ** 4 * ((p + 1) ** 3 + 1)
    return p * p * (p - 1) ** 4 * (p * p + 3 * p + 5)


def count_prime_power_zero(p: int, k: int) -> int:
    """Zero-permanent count mod p^k: the prime-level count scaled by p^(8(k-1))."""
    _require_prime(p)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    return p ** (8 * (k - 1)) * count_prime_zero(p)


def count_prime_power_unit(p: int, k: int) -> int:
    """Count mod p^k at any unit permanent value.

    Derived from the partition of GL3(Z/p^k) by permanent: the group order
    equals p^(k-1) times the zero count plus phi(p^k) times this one, so the
    division below is always exact.
    """
    _require_prime(p)
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    q, r = divmod(gl3_order(p) - count_prime_zero(p), p - 1)
    if r:
        raise ArithmeticError(
            f"unit-permanent count at p={p} is not integral; formula transcription bug"
        )
    return p ** (8 * (k - 1)) * q


def count_prime_power(p: int, k: int, x: int) -> int:
    """Count mod p^k at permanent value x: two values, split by p | x."""
    if x % p == 0:
        return count_prime_power_zero(p, k)
    return count_prime_power_unit(p, k)


def count(n: int | Modulus, x: int) -> int:
    """Matrices in GL3(Z/n) with permanent x, by multiplicativity over prime powers."""
    m = factorize(n) if isinstance(n, int) else n
    x %= m.n
    total = 1
    for p, k in m.factors:
        total *= count_prime_power(p, k, x % p**k)
    return total


_CLASS_FACTORS = {
    ClassLabel.C12: lambda p: p * (p + 1),
    ClassLabel.C13: lambda p: p - 1,
    ClassLabel.C21: lambda p: 3 * p - 1,
    ClassLabel.C22: lambda p: 1,
}


def class_count_prime_zero(p: int, label: ClassLabel) -> int:
    """Zero-permanent matrices mod an odd prime p in one of the five classes.

    Every class count is a multiple of the C22 count p(p-1)^4; the C11 factor
    depends on the quadratic-residue branch. The five values sum to
    count_prime_zero(p).
    """
    _require_odd_prime(p)
    base = p * (p - 1) ** 4
    if label is ClassLabel.C11:
        if qr_branch(p) is BranchTag.QR:
            return (p + 3) * (p * p - p + 1) * base
        return (p**3 + 2 * p * p + 1) * base
    if label in _CLASS_FACTORS:
        return _CLASS_FACTORS[label](p) * base
    raise ValueError(f"no class count for label {label}")


def class_count_prime_power_zero(p: int, k: int, label: ClassLabel) -> int:
    """Class count mod p^k: the prime-level class count scaled by p^(8(k-1))."""
    if k < 1:
        raise ValueError(f"exponent must be >= 1, got {k}")
    return p ** (8 * (k - 1)) * class_count_prime_zero(p, label)


@dataclass(frozen=True)
class CaseCensusRow:
    """One row of the zero-permanent case census at an odd prime.

    Matrices in the census are keyed by how many entries of their first two
    rows are nonzero mod p. ``row2_nonzeros`` is None on the single row that
    does not split by the second row (a first row with just one nonzero
    entry). The seven rows partition the zero-permanent census.
    """

    row1_nonzeros: int
    row2_nonzeros: int | None
    count: int

    @property
    def condition(self) -> str:
        return _ROW1_TEXT[self.row1_nonzeros]

    @property
    def subcondition(self) -> str:
        return "" if self.row2_nonzeros is None else _ROW2_TEXT[self.row2_nonzeros]

    @property
    def key(self) -> tuple[int, int | None]:
        return (self.row1_nonzeros, self.row2_nonzeros)


_ROW1_TEXT = {
    1: "exactly one nonzero entry in row 1",
    2: "exactly one zero entry in row 1",
    3: "no zero entry in row 1",
}
_ROW2_TEXT = {
    1: "exactly one nonzero entry in row 2",
    2: "exactly one zero entry in row 2",
    3: "no zero entry in row 2",
}


def case_rows(p: int) -> tuple[CaseCensusRow, ...]:
    """The seven-row case census of the zero-permanent count at an odd prime."""
    _require_odd_prime(p)
    q = p - 1
    if qr_branch(p) is BranchTag.QR:
        dense = p * q**5 * (p * p - 2 * p - 2)
    else:
        dense = p * p * q**5 * (p - 2)
    rows = (
        CaseCensusRow(1, None, 3 * p * p * q**4),
        CaseCensusRow(2, 1, 3 * p * q**4),
        # the second term carries p^2, not p: the seven rows must sum to
        # count_prime_zero(p), and the exhaustive census fixes this row
        CaseCensusRow(2, 2, 6 * p * q**5 + 3 * p * p * q**4),
        CaseCensusRow(2, 3, 3 * p * q**6),
        CaseCensusRow(3, 1, 3 * p * q**5),
        CaseCensusRow(3, 2, 3 * p * q**6),
        CaseCensusRow(3, 3, dense),
    )
    if sum(r.count for r in rows) != count_prime_zero(p):
        raise RuntimeError(f"case rows at p = {p} do not sum to the zero-permanent count")
    return rows
