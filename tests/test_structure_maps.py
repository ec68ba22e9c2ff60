import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from support import zero_perm_members_by_filter

from gl3census import oracle
from gl3census import structure_maps as sm
from gl3census.matrices import (
    CLASS_LABELS,
    ClassLabel,
    classify,
    is_invertible,
    mat3,
    perm_det,
    permanent3,
)
from gl3census.oracle import CensusTooLarge


def test_witness_examples():
    assert sm.witness(ClassLabel.C11, 5, 1, 0).rows == ((2, 3, 0), (1, 1, 0), (0, 0, 1))
    assert sm.witness(ClassLabel.C21, 3, 1, 0).rows == ((0, 0, 1), (1, 1, 0), (2, 1, 0))
    assert sm.witness(ClassLabel.C22, 5, 1, 5).rows == ((1, 1, 1), (0, 1, 1), (0, 1, 4))


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
@pytest.mark.parametrize("k", [1, 2])
def test_witnesses_are_valid(p, k):
    n = p**k
    for x in range(0, n, p):
        for lab in CLASS_LABELS:
            w = sm.witness(lab, p, k, x)
            assert permanent3(w).value == x
            assert is_invertible(w)
            assert classify(w, p) is lab


def test_witness_rejections():
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.C11, 2, 1, 0)
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.C11, 5, 1, 2)  # x not divisible by p
    with pytest.raises(ValueError):
        sm.witness(ClassLabel.NON_INVERTIBLE, 5, 1, 0)


def test_psi_shift_example_mod_nine():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    assert permanent3(m).value == 0 and classify(m, 3) is ClassLabel.C11
    r = sm.psi_shift(m, 3, 3)
    assert r.image.rows == ((7, 5, 0), (1, 1, 0), (0, 0, 1))
    assert r.position == (1, 1) and r.amount.value == 3
    assert permanent3(r.image).value == 3


def test_psi_shift_zero_is_identity():
    m = sm.witness(ClassLabel.C13, 7, 2, 14)
    r = sm.psi_shift(m, 0, 7)
    assert r.image == m


def test_psi_shift_round_trip_pairs():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    for x in (3, 6):
        forward = sm.psi_shift(m, x, 3)
        back = sm.psi_shift(forward.image, 9 - x, 3)
        assert back.image == m


def test_psi_shift_errors():
    m = mat3(((4, 5, 0), (1, 1, 0), (0, 0, 1)), 9)
    with pytest.raises(sm.ShiftNotDivisible):
        sm.psi_shift(m, 2, 3)
    # P13 = 0 for this matrix, so the C13 pivot cannot be used
    with pytest.raises(sm.PivotNotUnit):
        sm.psi_shift(m, 3, 3, label=ClassLabel.C13)
    with pytest.raises(ValueError):
        sm.psi_shift(mat3(((0, 0, 0),) * 3, 9), 3, 3)


@settings(deadline=None, max_examples=60)
@given(
    st.sampled_from([(3, 2), (5, 2)]),
    st.lists(st.integers(min_value=0, max_value=24), min_size=9, max_size=9),
    st.integers(min_value=1, max_value=4),
)
def test_psi_shift_properties_random(pk, entries, mult):
    p, k = pk
    n = p**k
    m = mat3((entries[0:3], entries[3:6], entries[6:9]), n)
    if not is_invertible(m):
        return
    x = (mult * p) % n
    r = sm.psi_shift(m, x, p)
    assert permanent3(r.image).value == (permanent3(m).value + x) % n
    assert is_invertible(r.image)
    assert classify(r.image, p) is classify(m, p)
    assert sm.psi_shift(r.image, (n - x) % n, p).image == m


def test_project_examples():
    target = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    pre1 = mat3(((4, 0, 0), (2, 1, 2), (1, 1, 1)), 9)
    pre2 = mat3(((1, 3, 0), (2, 1, 2), (1, 1, 1)), 9)
    assert permanent3(pre1).value == 3
    assert permanent3(pre2).value == 6
    assert sm.project(pre1, 3) == target
    assert sm.project(pre2, 3) == target
    ident9 = mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 9)
    assert sm.project(ident9, 3).rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    with pytest.raises(ValueError):
        sm.project(ident9, 2)


def test_fiber_count_example():
    a = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    assert sm.fiber_count(a, 3, 1) == 1
    assert sm.fiber_count(a, 3, 2) == 3**9


def test_fiber_count_preconditions():
    good = mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 3)
    with pytest.raises(CensusTooLarge):
        sm.fiber_count(good, 3, 3)  # 27 > default bound
    with pytest.raises(ValueError):
        sm.fiber_count(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 3), 3, 2)  # perm 1
    with pytest.raises(ValueError):
        sm.fiber_count(mat3(((1, 0, 0), (2, 1, 2), (1, 1, 1)), 9), 3, 2)  # not over Z/p


@pytest.mark.parametrize(
    "p,k,order",
    [
        (2, 1, 168),
        (3, 1, 11232),
        (2, 2, 2**9 * 168),
        (5, 1, 124 * 120 * 100),
        (7, 1, 342 * 336 * 294),
    ],
)
def test_emptiness_scan_small(p, k, order):
    report = sm.emptiness_scan(p, k)
    assert report.violations == 0
    assert report.scanned == order


def flat_index(e, n):
    """Each member's row-major entries as one base-n number, in int64."""
    return sum(e[i].astype(np.int64) * n**i for i in range(9))


@pytest.mark.parametrize("p", [3, 5, 7])
def test_zero_perm_members_match_filter_scan(p):
    solved = [flat_index(e, p) for e in sm.zero_perm_members(p, 1)]
    filtered = [flat_index(e, p) for e in zero_perm_members_by_filter(p)]
    assert np.array_equal(np.sort(np.concatenate(solved)), np.sort(np.concatenate(filtered)))


def test_zero_perm_members_at_nine_are_all_distinct_members():
    # the filter scan is too slow at 9^9 matrices; count, distinctness and membership instead
    n = 9
    want = oracle.census_tiered(n)[0]
    flat = np.empty(want, dtype=np.uint32)  # 9^9 < 2^32
    filled = 0
    unit = oracle._unit_mask(n)
    for e in sm.zero_perm_members(3, 2):
        assert e.dtype == np.int16 and filled + e.shape[1] <= want
        perm, det = perm_det(e.astype(np.int64), n)
        assert (perm == 0).all() and unit[det].all()
        flat[filled : filled + e.shape[1]] = flat_index(e, n)
        filled += e.shape[1]
    assert filled == want
    flat.sort()
    assert (flat[1:] != flat[:-1]).all()
