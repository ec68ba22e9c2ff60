import itertools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gl3census import oracle
from gl3census.matrices import (
    CLASS_LABELS,
    ClassLabel,
    classify,
    determinant2,
    determinant3,
    first_unit,
    format_mat3,
    is_invertible,
    mat2,
    mat3,
    mod,
    parse_mat3,
    perm_det,
    perm_det2,
    perm_det_subperms,
    permanent2,
    permanent3,
    sub_permanents,
)
from support import label_pivot

# the running example matrix over Z/3 with permanent 0
EXAMPLE = ((1, 0, 0), (2, 1, 2), (1, 1, 1))


def rand_mat3(draw_n=st.integers(min_value=2, max_value=60)):
    @st.composite
    def build(draw):
        n = draw(draw_n)
        entries = draw(
            st.lists(st.integers(min_value=0, max_value=n - 1), min_size=9, max_size=9)
        )
        return mat3((entries[0:3], entries[3:6], entries[6:9]), n)

    return build()


def test_permanent_examples():
    assert permanent3(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5)).value == 1
    assert permanent3(mat3(EXAMPLE, 3)).value == 0
    assert permanent3(mat3(((1, 1, 1),) * 3, 7)).value == 6


def test_determinant_examples():
    assert determinant3(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 7)).value == 1
    assert determinant3(mat3(EXAMPLE, 3)).value == 2
    assert determinant3(mat3(((1, 2, 3), (1, 2, 3), (4, 0, 1)), 5)).value == 0


def test_two_by_two_examples():
    m = mat2(((1, 0), (0, 1)), 3)
    assert permanent2(m).value == 1 and determinant2(m).value == 1
    m = mat2(((1, 1), (1, 1)), 5)
    assert permanent2(m).value == 2 and determinant2(m).value == 0
    m = mat2(((1, 2), (1, 1)), 3)
    assert permanent2(m).value == 0 and determinant2(m).value == 2


def test_sub_permanents_examples():
    s = sub_permanents(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5))
    assert [r.value for r in s.ordered()] == [1, 0, 0, 0, 1]
    s = sub_permanents(mat3(EXAMPLE, 3))
    assert [r.value for r in s.ordered()] == [0, 1, 0, 0, 1]
    s = sub_permanents(mat3(((1, 1, 1),) * 3, 7))
    assert [r.value for r in s.ordered()] == [2] * 5


def test_is_invertible():
    assert is_invertible(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 12))
    assert not is_invertible(mat3(((0, 0, 0),) * 3, 3))
    assert is_invertible(mat3(EXAMPLE, 3))


def test_classify_examples():
    assert classify(mat3(((1, 0, 0), (0, 1, 0), (0, 0, 1)), 5), 5) is ClassLabel.C11
    assert classify(mat3(EXAMPLE, 3), 3) is ClassLabel.C12
    # witness for the C21 class at p = 5, x = 5: entry a31 = x - 1 = 4
    assert classify(mat3(((0, 0, 1), (1, 1, 0), (4, 1, 0)), 5), 5) is ClassLabel.C21
    assert classify(mat3(((0, 0, 0),) * 3, 3), 3) is ClassLabel.NON_INVERTIBLE


def test_classify_needs_dividing_prime():
    with pytest.raises(ValueError):
        classify(mat3(EXAMPLE, 3), 5)
    with pytest.raises(ValueError):
        classify(mat3(EXAMPLE, 9), 9)


def test_classify_reduces_prime_powers_mod_p():
    m = mat3(((4, 0, 0), (2, 1, 2), (1, 1, 1)), 9)
    assert classify(m, 3) is ClassLabel.C12


@pytest.mark.parametrize("p", [2, 3])
def test_classify_total_on_invertibles(p):
    # every invertible matrix mod p lands in one of the five classes
    seen = set()
    for entries in itertools.product(range(p), repeat=9):
        m = mat3((entries[0:3], entries[3:6], entries[6:9]), p)
        label = classify(m, p)
        if is_invertible(m):
            assert label in CLASS_LABELS
            seen.add(label)
        else:
            assert label is ClassLabel.NON_INVERTIBLE
    assert seen <= set(CLASS_LABELS)


@given(rand_mat3())
def test_row_expansion_consistency(m):
    s = sub_permanents(m)
    n = m.modulus.n
    (a11, a12, a13) = m.rows[0]
    direct = (a11 * s.p11.value + a12 * s.p12.value + a13 * s.p13.value) % n
    assert permanent3(m).value == direct


@given(rand_mat3())
def test_five_subpermanent_identity(m):
    # 2 a22 P22 - a11 P11 + a12 P12 - 2 a21 P21 - 3 a13 P13 = det - 6 a13 a21 a32
    n = m.modulus.n
    s = sub_permanents(m)
    (a11, a12, a13), (a21, a22, _), (_, a32, _) = m.rows
    lhs = (
        2 * a22 * s.p22.value
        - a11 * s.p11.value
        + a12 * s.p12.value
        - 2 * a21 * s.p21.value
        - 3 * a13 * s.p13.value
    ) % n
    rhs = (determinant3(m).value - 6 * a13 * a21 * a32) % n
    assert lhs == rhs


@given(rand_mat3())
def test_transpose_invariance(m):
    t = m.transpose()
    assert permanent3(t) == permanent3(m)
    assert determinant3(t) == determinant3(m)


def test_literal_round_trip():
    m = parse_mat3("1,0,0;2,1,2;1,1,1", 3)
    assert m.rows == EXAMPLE
    assert format_mat3(m) == "1,0,0;2,1,2;1,1,1"
    assert parse_mat3(format_mat3(m), 3) == m


def test_literal_rejects_garbage():
    with pytest.raises(ValueError):
        parse_mat3("1,2;3,4", 5)
    with pytest.raises(ValueError):
        parse_mat3("a,b,c;1,2,3;4,5,6", 5)


def test_entry_access_and_update():
    m = mat3(EXAMPLE, 3)
    assert m.entry(2, 3) == 2
    m2 = m.with_entry(2, 3, 7)
    assert m2.entry(2, 3) == 1  # reduced mod 3
    assert m.entry(2, 3) == 2  # original untouched


# ---------------------------------------------------------------------------
# the kernel against an independent oracle: the Leibniz sum over S3

SUBPERM_POSITIONS = ((0, 0), (0, 1), (0, 2), (1, 0), (1, 1))  # P11, P12, P13, P21, P22


def leibniz(rows, n):
    """(perm, det) mod n as the sum over all permutations, det signed by inversion count."""
    k = len(rows)
    perm = det = 0
    for sigma in itertools.permutations(range(k)):
        term = math.prod(rows[i][sigma[i]] for i in range(k))
        inversions = sum(sigma[i] > sigma[j] for i in range(k) for j in range(i + 1, k))
        perm += term
        det += (-1) ** inversions * term
    return perm % n, det % n


def leibniz_subperms(rows, n):
    minors = [
        [[v for c, v in enumerate(row) if c != j] for r, row in enumerate(rows) if r != i]
        for i, j in SUBPERM_POSITIONS
    ]
    return tuple(leibniz(m, n)[0] for m in minors)


def as_rows(e):
    return [list(e[0:3]), list(e[3:6]), list(e[6:9])]


big_entries = st.lists(st.integers(-(10**30), 10**30), min_size=9, max_size=9)


@given(st.integers(min_value=1, max_value=10**30), big_entries)
def test_kernel_matches_leibniz_on_python_ints(n, e):
    rows = as_rows(e)
    assert perm_det(e, n) == leibniz(rows, n)
    assert perm_det_subperms(e, n) == leibniz(rows, n) + leibniz_subperms(rows, n)
    assert perm_det2(e[:4], n) == leibniz([e[0:2], e[2:4]], n)


@st.composite
def matrix_batch(draw):
    n = draw(st.integers(min_value=1, max_value=10**6))
    entry = st.integers(min_value=0, max_value=n - 1)
    mats = draw(st.lists(st.lists(entry, min_size=9, max_size=9), min_size=1, max_size=20))
    return n, mats


@given(matrix_batch())
def test_kernel_on_int64_arrays_column_by_column(batch):
    n, mats = batch
    e = np.array(mats, dtype=np.int64).T  # (9, m): one matrix per column
    perm, det = perm_det(e, n)
    subs = perm_det_subperms(e, n)[2:]
    for col, m in enumerate(mats):
        rows = as_rows(m)
        assert (int(perm[col]), int(det[col])) == leibniz(rows, n)
        assert tuple(int(s[col]) for s in subs) == leibniz_subperms(rows, n)


@pytest.mark.parametrize(
    "dtype,moduli",
    [(np.int8, (2, 3, 7)), (np.int16, (8, 9, 105)), (np.int64, (106, 127, 10**6))],
)
def test_fused_kernel_equals_perm_det_and_subperms(dtype, moduli):
    # each type up to the largest n that oracle._kernel_type gives it, on a
    # (9, m) batch and in a spread layout, as the symmetry-free sweeps lay
    # their matrices out: first rows along one axis, rows 2 and 3 along the
    # other. The sub-permanents are the permanents of
    # the 2x2 minors, by perm_det2
    rng = np.random.default_rng(dtype().itemsize)
    for n in moduli:
        assert np.iinfo(dtype).max >= np.iinfo(oracle._kernel_type(n)).max
        e = rng.integers(0, n, size=(9, 2000), dtype=dtype)
        spread = [*(v[None, :50] for v in e[0:3]), *(v[:40, None] for v in e[3:9])]
        for batch in (e, spread):
            # the minor of P_ij leaves out row i and column j
            minors = [[batch[r] for r in range(9) if r // 3 != i and r % 3 != j] for i, j in SUBPERM_POSITIONS]
            want = (*perm_det(batch, n), *(perm_det2(m, n)[0] for m in minors))
            got = perm_det_subperms(batch, n)
            assert len(got) == 7
            for a, b in zip(got, want):
                assert a.dtype == dtype and a.shape == b.shape and np.array_equal(a, b)


@given(st.integers(min_value=1, max_value=10**30), big_entries)
def test_kernel_invariant_under_cyclic_row_rotation(n, e):
    want = leibniz(as_rows(e), n)
    assert perm_det(e[6:9] + e[0:6], n) == want  # rows (third, first, second)
    assert perm_det(e[3:9] + e[0:3], n) == want  # rows (second, third, first)


@given(matrix_batch())
def test_kernel_rotated_broadcast_layout(batch):
    # the layout of the filter scan in tests/support.py: third rows broadcast
    # along one axis, (first, second) prefixes along the other, passed as
    # (third, first, second)
    n, mats = batch
    e = np.array(mats, dtype=np.int64)
    third = [e[None, :, c] for c in range(6, 9)]
    prefix = [e[:, c, None] for c in range(6)]
    perm, det = perm_det(third + prefix, n)
    for i, j in itertools.product(range(len(mats)), repeat=2):
        rows = as_rows(mats[i][:6] + mats[j][6:])
        assert (int(perm[i, j]), int(det[i, j])) == leibniz(rows, n)


# metamorphic relations: for a permutation matrix P and a unit diagonal D,
# perm(P M) = perm(M P) = perm(M), det(P M) = det(M P) = sign(P) det(M), and
# scaling row or column i by d_i multiplies both by d_i


def sign(perm):
    return (-1) ** sum(perm[i] > perm[j] for i in range(3) for j in range(i + 1, 3))


@given(matrix_batch())
def test_kernel_under_row_and_column_permutations(batch):
    n, mats = batch
    e = np.array(mats, dtype=np.int64).T.reshape(3, 3, -1)  # (row, column, matrix)
    perm, det = perm_det(e.reshape(9, -1), n)
    for rows in itertools.permutations(range(3)):
        for cols in itertools.permutations(range(3)):
            moved = e[list(rows)][:, list(cols)].reshape(9, -1)
            perm2, det2 = perm_det(moved, n)
            assert (perm2 == perm).all()
            assert (det2 == sign(rows) * sign(cols) * det % n).all()


@st.composite
def batch_and_units(draw):
    n, mats = draw(matrix_batch())
    unit = st.integers(min_value=0, max_value=n - 1).filter(lambda u: math.gcd(u, n) == 1)
    units = st.lists(unit, min_size=3, max_size=3)
    return n, mats, draw(units), draw(units)


@given(batch_and_units())
def test_kernel_under_unit_row_and_column_scaling(batch):
    n, mats, row_units, col_units = batch
    e = np.array(mats, dtype=np.int64).T.reshape(3, 3, -1)
    perm, det = perm_det(e.reshape(9, -1), n)
    scale = np.outer(row_units, col_units)[:, :, None] % n
    perm2, det2 = perm_det((e * scale % n).reshape(9, -1), n)
    d = math.prod(row_units) * math.prod(col_units) % n
    assert (perm2 == perm * d % n).all()
    assert (det2 == det * d % n).all()


@given(
    st.integers(min_value=1, max_value=200),
    st.sampled_from([np.int8, np.int16, np.int32, np.int64]),
    st.lists(st.integers(min_value=-(2**15), max_value=2**15), min_size=1, max_size=50),
)
def test_mod_equals_the_remainder(n, dtype, values):
    info = np.iinfo(dtype)
    # mod's intermediates reach |a| + n - 1
    a = np.array([v for v in values if info.min + n <= v <= info.max], dtype=dtype)
    if n <= info.max:
        assert np.array_equal(mod(a, n), a % n)
        assert mod(a, n).dtype == dtype
    assert [mod(int(v), n) for v in values] == [v % n for v in values]


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16])
def test_mod_on_unsigned_arrays_equals_the_remainder(dtype):
    # every value of the type, at every n of uint8 and a spread of n up to
    # the type's largest in uint16: -n has no unsigned value, so mod takes
    # the multiple off a instead, and a itself is left as it was
    info = np.iinfo(dtype)
    a = np.arange(info.max + 1, dtype=dtype)
    moduli = range(1, info.max + 1) if dtype is np.uint8 else (1, 2, 3, 9, 10, 255, 256, 4099, info.max)
    for n in moduli:
        r = mod(a, n)
        assert r.dtype == dtype and np.array_equal(r, a % n), n
    assert np.array_equal(a, np.arange(info.max + 1))


@pytest.mark.parametrize("n", [105, 107])
def test_int16_kernel_at_the_edge_of_its_ceiling(n):
    # {0, n - 1}^9 reaches the forms' and sub-permanents' extremes, +-2 (n - 1)^2. A first
    # row of n - 1 over the rows (1, 1, 1) and (h, h, h), 2h = n - 1, has A = B = C = n - 1,
    # so its permanent reaches 3 (n - 1)^2 before reduction: 32448 at 105, past int16 at 107.
    h = (n - 1) // 2
    mats = [*itertools.product((0, n - 1), repeat=9), (n - 1,) * 3 + (1,) * 3 + (h,) * 3]
    e = np.array(mats, dtype=np.int64).T
    wide = perm_det_subperms(e, n)
    narrow = perm_det_subperms(e.astype(np.int16), n)
    same = all(np.array_equal(a, b) for a, b in zip(narrow, wide))
    assert same == (oracle._kernel_type(n) is np.int16)


@pytest.mark.parametrize("n,p", [(9, 3), (25, 5), (27, 3)])
def test_first_unit_matches_the_reference_and_classify(n, p):
    # seeded draws, non-members and singular matrices included; a matrix with
    # no unit among the five sub-permanents gets index 4
    e = np.random.default_rng(n).integers(0, n, size=(9, 20_000), dtype=np.int64)
    subs = perm_det_subperms(e, n)[2:]
    lab, pivot = first_unit(subs, p)
    want_lab, want_pivot = label_pivot(e, n, p)
    assert lab.dtype == np.int8
    assert (lab == want_lab).all() and (pivot == want_pivot).all()
    # on unsigned arrays pivot - subs[i] wraps, and the select is still exact
    lab_u, pivot_u = first_unit([v.astype(np.uint8) for v in subs], p)
    assert pivot_u.dtype == np.uint8 and (lab_u == lab).all() and (pivot_u == pivot).all()
    none = (np.stack(subs) % p == 0).all(axis=0)
    assert none.any() and (lab[none] == 4).all() and (pivot[none] == subs[4][none]).all()
    # classify, the scalar path, on up to 40 invertible draws of each label
    invertible = perm_det(e, n)[1] % p != 0
    for i, label in enumerate(CLASS_LABELS):
        cols = np.flatnonzero(invertible & (lab == i))[:40]
        assert cols.size > 0, label
        for c in cols:
            assert classify(mat3(e[:, c].reshape(3, 3).tolist(), n), p) is label
