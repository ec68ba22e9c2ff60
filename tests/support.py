"""Shared frozen oracles for the test suite.

object_census3 is a deliberately naive, object-level census used to validate
the array engines at tiny moduli. It evaluates through the same matrices
kernel as the engines, so its independent pins are the Leibniz tests in
test_matrices and the frozen tables below, which were produced by exhaustive
enumeration.

third_row_counts_generic is the reference for the per-subgroup third-row
tables of the orbit engines, which read them off each subgroup's Hermite
basis instead of sweeping all n^3 third rows.

zero_perm_members_by_filter is the reference for
structure_maps.zero_perm_members, the shift check's member enumeration,
which solves for the third rows of permanent 0 instead of filtering all n^3
of them.
"""

import itertools
from math import gcd

import numpy as np

from gl3census import oracle
from gl3census.matrices import Mat3, determinant3, permanent3, perm_det
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


def zero_perm_members_by_filter(n: int):
    """Every member of G(n, 0), in (9, m) batches, by testing all n^3 third rows of each prefix.

    Prefixes (rows 1 and 2) go in blocks of 2048 against every third row;
    the kernel sees rows (third, first, second), a cyclic shift with the same
    permanent and determinant.
    """
    third = [v[None, :] for v in oracle._digits(range(n**3), n, 3)]
    unit = oracle._unit_mask(n)
    for start in range(0, n**6, 2048):
        prefix = [v[:, None] for v in oracle._digits(range(start, min(start + 2048, n**6)), n, 6)]
        perm, det = perm_det(third + prefix, n)
        pi, ti = np.nonzero((perm == 0) & unit[det])
        yield np.stack([v[pi, 0] for v in prefix] + [v[0, ti] for v in third])


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
