from fractions import Fraction
from itertools import combinations
from math import gcd, prod

from hypothesis import given, settings, strategies as st

import toricarr.exact
from toricarr.exact import (SparseMatrix, hnf, snf, rank, integer_kernel,
                            saturation_basis)

from conftest import solve_affine


def sparse(rows):
    """The row list as a column-sparse matrix."""
    cols = len(rows[0]) if rows else 0
    return SparseMatrix(len(rows), cols,
                        [{i: row[j] for i, row in enumerate(rows) if row[j]}
                         for j in range(cols)])


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def det(rows):
    """Determinant of a square integer matrix by Fraction elimination."""
    a = [[Fraction(x) for x in row] for row in rows]
    d = Fraction(1)
    for c in range(len(a)):
        piv = next((r for r in range(c, len(a)) if a[r][c] != 0), None)
        if piv is None:
            return 0
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            d = -d
        d *= a[c][c]
        for r in range(c + 1, len(a)):
            f = a[r][c] / a[c][c]
            a[r] = [x - f * y for x, y in zip(a[r], a[c])]
    return d


def assert_unimodular(u):
    assert all(type(x) is int for row in u for x in row)
    assert det(u) in (1, -1)


def minors_gcd(rows, k):
    """gcd of the k x k minors: the product d1 ... dk of the first k
    invariant factors, or 0 beyond the rank."""
    g = 0
    for rs in combinations(range(len(rows)), k):
        for cs in combinations(range(len(rows[0])), k):
            g = gcd(g, int(det([[rows[i][j] for j in cs] for i in rs])))
    return g


small_matrices = st.integers(1, 4).flatmap(
    lambda r: st.integers(1, 4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(-9, 9), min_size=c, max_size=c),
            min_size=r, max_size=r)))


# -- Hermite normal form

def test_hnf_identity():
    ident = [[1, 0], [0, 1]]
    h, u = hnf(ident)
    assert h == ident and u == ident


def test_hnf_worked_example():
    m = [[2, 4], [1, 3]]
    h, u = hnf(m)
    assert mat_mul(u, m) == h
    assert_unimodular(u)
    assert rank(m) == 2


def test_hnf_zero_matrix():
    m = [[0, 0], [0, 0]]
    h, u = hnf(m)
    assert h == m
    assert u == [[1, 0], [0, 1]]


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_hnf_transform_properties(rows):
    h, u = hnf(rows)
    assert mat_mul(u, rows) == h
    assert_unimodular(u)
    # echelon shape: pivot columns strictly increase, zero rows trail,
    # pivots are positive and reduce the entries above them
    pivots = []
    for i, row in enumerate(h):
        nz = next((j for j, x in enumerate(row) if x), None)
        if nz is None:
            assert not any(any(r) for r in h[i:])
            break
        assert not pivots or nz > pivots[-1]
        assert row[nz] > 0
        assert all(0 <= h[k][nz] < row[nz] for k in range(i))
        pivots.append(nz)


# -- Smith normal form

def test_snf_diag_ones():
    assert snf(sparse([[1, 0], [0, 1]])) == [1, 1]


def test_snf_worked_example():
    assert snf(sparse([[2, 0], [0, 3]])) == [1, 6]


def test_snf_zero():
    assert snf(SparseMatrix(2, 3, [{}, {}, {}])) == []


def test_snf_unit_elimination_leaves_torsion():
    # the +-1 pivots leave the block [[-2]] for the residual Hermite rounds
    assert snf(sparse([[1, 1], [1, -1]])) == [1, 2]


def test_snf_residual_block_needs_two_rounds():
    # no +-1 entry, so the whole matrix is the residual block; the first
    # row-and-column round leaves [[1, 5], [0, 10]], the second a diagonal
    assert snf(sparse([[2, 3], [0, 5]])) == [1, 10]
    assert snf(sparse([[6, 10], [15, 0]])) == [1, 150]


def test_snf_diagonal_made_a_chain():
    # already diagonal, but 4 does not divide 6: gcd and lcm give the chain
    assert snf(sparse([[4, 0], [0, 6]])) == [2, 12]


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_snf_transform_properties(rows):
    factors = snf(sparse(rows))
    assert all(f > 0 for f in factors)
    assert all(b % a == 0 for a, b in zip(factors, factors[1:]))
    # independent reference: d1 ... dk is the gcd of the k x k minors
    for k in range(1, min(len(rows), len(rows[0])) + 1):
        expected = prod(factors[:k]) if k <= len(factors) else 0
        assert minors_gcd(rows, k) == expected


# -- the Fraction reference solver of the tests (conftest.py)

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


# -- integer kernels and lattice saturation

def test_saturation_scales_down():
    assert saturation_basis([[2, 2]], 2) == [[1, 1]]


def test_saturation_full_rank():
    assert saturation_basis([[1, 0], [0, 1]], 2) == [[1, 0], [0, 1]]


@settings(max_examples=120, deadline=None)
@given(small_matrices)
def test_integer_kernel_and_saturation(rows):
    n = len(rows[0])
    kernel = integer_kernel(rows, n)
    assert all(sum(a * x for a, x in zip(row, vec)) == 0
               for row in rows for vec in kernel)
    # n - rank rows, the rank found by Fraction elimination
    assert len(kernel) == len(solve_affine(rows, [0] * len(rows))[1])
    if kernel:
        # every invariant factor 1: the kernel lattice is saturated
        assert set(snf(sparse(kernel))) == {1}
    sat = saturation_basis(rows, n)
    for row in rows:
        if not sat:
            assert not any(row)
            continue
        # integer coordinates in the saturation basis
        sol = solve_affine([list(col) for col in zip(*sat)], row)
        assert sol is not None and not sol[1]
        assert all(x.denominator == 1 for x in sol[0])


# -- the layer boundary

def test_exact_binds_no_rational_elimination():
    # the exact layer is integral; Fraction elimination is only the tests'
    # reference (conftest.py)
    names = {"fractions", "Fraction", "solve_affine", "kernel_basis"}
    assert not names & set(vars(toricarr.exact))
