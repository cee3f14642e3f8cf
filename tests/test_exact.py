from fractions import Fraction

from hypothesis import given, settings, strategies as st

from toricarr.exact import (IntMatrix, hnf, snf, snf_with_transforms,
                            solve_affine, rank,
                            inv_unimodular, saturation_basis)


def mat(rows):
    return IntMatrix.from_rows(rows)


def mat_mul(a, b):
    assert a.cols == b.rows
    return IntMatrix(a.rows, b.cols,
                     [sum(a[i, k] * b[k, j] for k in range(a.cols))
                      for i in range(a.rows) for j in range(b.cols)])


def assert_unimodular(u):
    # inv_unimodular raises unless the inverse is integral
    ident = IntMatrix.identity(u.rows)
    inv = inv_unimodular(u)
    assert mat_mul(u, inv) == ident and mat_mul(inv, u) == ident


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


# -- Hermite normal form

def test_hnf_identity():
    ident = IntMatrix.identity(2)
    h, u = hnf(ident)
    assert h == ident and u == ident


def test_hnf_worked_example():
    m = mat([[2, 4], [1, 3]])
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert_unimodular(u)
    assert rank(m) == 2


def test_hnf_zero_matrix():
    m = IntMatrix.zero(2, 2)
    h, u = hnf(m)
    assert h == m
    assert u == IntMatrix.identity(2)


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_hnf_transform_properties(rows):
    m = mat(rows)
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert_unimodular(u)
    # echelon shape: pivot columns strictly increase, zero rows trail
    pivots = []
    for i in range(h.rows):
        row = h.row(i)
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            assert all(not any(h.row(k)) for k in range(i, h.rows))
            break
        assert not pivots or nz > pivots[-1]
        assert row[nz] > 0
        pivots.append(nz)


# -- Smith normal form

def test_snf_diag_ones():
    _, factors = snf(mat([[1, 0], [0, 1]]))
    assert factors == [1, 1]


def test_snf_worked_example():
    d, factors = snf(mat([[2, 0], [0, 3]]))
    assert factors == [1, 6]


def test_snf_zero():
    d, factors = snf(IntMatrix.zero(2, 3))
    assert factors == []
    assert (d.rows, d.cols, d.columns) == (2, 3, [{}, {}, {}])


def test_snf_unit_elimination_leaves_torsion():
    # the +-1 pivots leave the block [[-2]] for the dense Smith form
    d, factors = snf(mat([[1, 1], [1, -1]]))
    assert factors == [1, 2]
    assert d.columns == [{0: 1}, {1: 2}]


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_transform_properties(rows):
    m = mat(rows)
    d, u, v = snf_with_transforms(m)
    assert mat_mul(mat_mul(u, m), v) == d
    assert_unimodular(u)
    assert_unimodular(v)
    for i in range(d.rows):
        for j in range(d.cols):
            if i != j:
                assert d[i, j] == 0
    diag = [d[i, i] for i in range(min(d.rows, d.cols))]
    for a, b in zip(diag, diag[1:]):
        if a != 0:
            assert b % a == 0
        else:
            assert b == 0
    assert snf(m)[1] == [x for x in diag if x != 0]


# -- affine solving

def test_solve_point():
    part, basis = solve_affine([[1]], [0])
    assert part == (0,)
    assert basis == []


def test_solve_two_equations():
    part, basis = solve_affine([[1, 1], [1, -1]], [1, 0])
    assert part == (Fraction(1, 2), Fraction(1, 2))
    assert basis == []


def test_solve_inconsistent():
    assert solve_affine([[1, 1], [1, 1]], [0, 1]) is None


@settings(max_examples=120, deadline=None)
@given(small_matrices, st.lists(st.integers(-9, 9), min_size=1, max_size=4))
def test_solve_substitutes_back(rows, b):
    b = (b * 4)[:len(rows)]
    sol = solve_affine(rows, b)
    if sol is None:
        return
    part, basis = sol
    for row, rhs in zip(rows, b):
        assert sum(Fraction(a) * x for a, x in zip(row, part)) == rhs
    for vec in basis:
        for row in rows:
            assert sum(Fraction(a) * x for a, x in zip(row, vec)) == 0


# -- lattice saturation

def test_saturation_scales_down():
    assert saturation_basis([[2, 2]], 2) == [[1, 1]]


def test_saturation_full_rank():
    assert saturation_basis([[1, 0], [0, 1]], 2) == [[1, 0], [0, 1]]


def test_inv_unimodular_roundtrip():
    u = mat([[1, 2], [0, 1]])
    assert mat_mul(u, inv_unimodular(u)) == IntMatrix.identity(2)
