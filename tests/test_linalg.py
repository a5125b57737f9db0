"""Exact linear algebra: rref, solving, spans, nilpotency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.errors import DimensionError
from postlie.fields import GF, QQ
from postlie.linalg import (Matrix, commutator, coordinates_in_span,
                            flatten_matrix, inverse, is_nilpotent_matrix,
                            matrix_from_flat, nullspace, rank, rref,
                            rref_solve, span_basis, unit_vector, vadd,
                            vscale, vsub, vzero)

small_fraction = st.fractions(min_value=-4, max_value=4,
                              max_denominator=3)


def q_matrix(nrows, ncols):
    return st.lists(
        st.lists(small_fraction, min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(lambda rows: Matrix(QQ, rows))


def gf5_matrix(nrows, ncols):
    return st.lists(
        st.lists(st.integers(0, 4), min_size=ncols, max_size=ncols),
        min_size=nrows, max_size=nrows,
    ).map(lambda rows: Matrix(GF(5), rows))


def test_matrix_constructor_checks_shape():
    with pytest.raises(DimensionError):
        Matrix(QQ, [[1, 2], [3]])
    # no rows is the legitimate 0 x 0 matrix, not an error
    assert Matrix(QQ, []).shape == (0, 0)


def test_matrix_basics():
    A = Matrix(QQ, [[1, 2], [3, 4]])
    assert A.shape == (2, 2)
    assert A.entry(1, 0) == 3
    assert A.row(0) == (1, 2)
    assert A.col(1) == (2, 4)
    assert A.flat() == (1, 2, 3, 4)
    assert A.transpose().col(0) == (1, 2)
    assert A.trace() == 5
    assert (A - A).is_zero()
    assert A.apply((1, 0)) == (1, 3)
    assert (A * Matrix.identity(QQ, 2)) == A
    assert A.scale(Fraction(1, 2)).entry(1, 1) == 2


def test_vector_helpers():
    u = (Fraction(1), Fraction(2))
    v = (Fraction(3), Fraction(-1))
    assert vadd(u, v) == (4, 1)
    assert vsub(u, v) == (-2, 3)
    assert vscale(Fraction(2), u) == (2, 4)
    assert vzero(QQ, 3) == (0, 0, 0)
    assert unit_vector(GF(5), 3, 1) == (GF(5).zero, GF(5).one, GF(5).zero)


def test_rref_solve_frozen_example():
    # one dependent equation: x + 2y = 1 stated twice
    A = Matrix(QQ, [[1, 2], [2, 4]])
    sol = rref_solve(A, (1, 2))
    assert sol.solvable
    assert sol.particular == (1, 0)
    assert sol.homogeneous == ((-2, 1),)


def test_rref_solve_inconsistent():
    A = Matrix(QQ, [[1, 2], [2, 4]])
    sol = rref_solve(A, (1, 3))
    assert not sol.solvable and sol.particular is None
    assert sol.homogeneous == ((-2, 1),)


def test_rref_frozen_pivots():
    A = Matrix(QQ, [[0, 2, 4], [1, 1, 1], [1, 3, 5]])
    R, pivots = rref(A)
    assert pivots == (0, 1)
    assert R.row(0) == (1, 0, -1)
    assert R.row(1) == (0, 1, 2)
    assert R.row(2) == (0, 0, 0)


@settings(max_examples=60, deadline=None)
@given(q_matrix(3, 4))
def test_rref_is_idempotent(A):
    R, pivots = rref(A)
    R2, pivots2 = rref(R)
    assert R == R2 and pivots == pivots2


def _scalar_rref(matrix):
    """Gauss-Jordan on field scalars, first nonzero row as pivot: the
    reference that the raw-value elimination of `rref` must reproduce."""
    rows = [list(matrix.row(i)) for i in range(matrix.nrows)]
    pivots = []
    r = 0
    for c in range(matrix.ncols):
        found = [i for i in range(r, matrix.nrows) if rows[i][c] != 0]
        if not found:
            continue
        rows[r], rows[found[0]] = rows[found[0]], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(matrix.nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == matrix.nrows:
            break
    return rows, tuple(pivots)


@st.composite
def any_matrix(draw):
    """A matrix over Q or GF(2, 3, 7) of up to 4 x 5, often singular."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    nrows, ncols = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    value = (small_fraction if field.is_rational
             else st.integers(-2 * field.p, 2 * field.p))
    rows = [[draw(value) for _ in range(ncols)] for _ in range(nrows)]
    if nrows > 1 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-1])]
        rows[0] = rows[-1][:]
    return Matrix(field, rows)


@settings(max_examples=150, deadline=None)
@given(any_matrix())
def test_rref_matches_the_scalar_elimination(A):
    R, pivots = rref(A)
    rows, expected = _scalar_rref(A)
    assert pivots == expected
    assert R.rows() == [tuple(row) for row in rows]
    assert R.field == A.field and R.shape == A.shape
    for v in R.flat():
        assert v == A.field.scalar(v) and type(v) is type(A.field.one)
        if not A.field.is_rational:
            assert v.p == A.field.p
    if A.nrows == A.ncols:
        inv = inverse(A)
        ident = Matrix.identity(A.field, A.nrows)
        assert (inv is None) == (len(pivots) < A.nrows)
        if inv is not None:
            assert A * inv == ident and inv * A == ident


@settings(max_examples=60, deadline=None)
@given(q_matrix(3, 4))
def test_nullspace_vectors_annihilate(A):
    for v in nullspace(A):
        assert all(x == 0 for x in A.apply(v))
    assert rank(A) + len(nullspace(A)) == 4


@settings(max_examples=60, deadline=None)
@given(gf5_matrix(3, 3))
def test_rank_bounds_and_transpose(A):
    r = rank(A)
    assert 0 <= r <= 3
    assert r == rank(A.transpose())


@settings(max_examples=60, deadline=None)
@given(q_matrix(3, 3))
def test_inverse_round_trip(A):
    inv = inverse(A)
    if inv is None:
        assert rank(A) < 3
    else:
        assert A * inv == Matrix.identity(QQ, 3)
        assert inv * A == Matrix.identity(QQ, 3)


@settings(max_examples=40, deadline=None)
@given(gf5_matrix(2, 2), gf5_matrix(2, 2), gf5_matrix(2, 2))
def test_matrix_multiplication_associative(A, B, C):
    assert (A * B) * C == A * (B * C)


@settings(max_examples=60, deadline=None)
@given(q_matrix(3, 3), st.lists(small_fraction, min_size=3, max_size=3))
def test_rref_solve_agrees_with_matrix_action(A, b):
    sol = rref_solve(A, tuple(b))
    if sol.solvable:
        assert list(A.apply(sol.particular)) == [QQ.scalar(x) for x in b]
        for h in sol.homogeneous:
            assert all(x == 0 for x in A.apply(h))
    else:
        # b is outside the column span
        assert coordinates_in_span(
            [A.col(j) for j in range(3)], tuple(b), QQ) is None


def test_coordinates_in_span_deterministic():
    vecs = [(1, 0), (0, 1), (1, 1)]
    coords = coordinates_in_span(vecs, (2, 3), QQ)
    # free coefficient on the dependent vector pinned to zero
    assert coords == (2, 3, 0)
    assert coordinates_in_span([], (0, 0), QQ) == ()
    assert coordinates_in_span([], (1, 0), QQ) is None


def test_span_basis_is_canonical():
    b1 = span_basis(QQ, 3, [(1, 1, 0), (0, 1, 1)])
    b2 = span_basis(QQ, 3, [(2, 2, 0), (1, 2, 1), (1, 0, -1)])
    assert b1 == b2 and len(b1) == 2


def test_nilpotency_exact():
    N = Matrix(QQ, [[0, 1, 5], [0, 0, -2], [0, 0, 0]])
    assert is_nilpotent_matrix(N)
    assert not is_nilpotent_matrix(Matrix.identity(QQ, 3))
    # nilpotent over F_5 but not over Q: x -> 5x is zero mod 5
    assert is_nilpotent_matrix(Matrix(GF(5), [[5]]))
    assert not is_nilpotent_matrix(Matrix(QQ, [[5]]))


def test_commutator_and_flatten_round_trip():
    A = Matrix(QQ, [[0, 1], [0, 0]])
    B = Matrix(QQ, [[1, 0], [0, -1]])
    assert commutator(A, B) == Matrix(QQ, [[0, -2], [0, 0]])
    assert matrix_from_flat(QQ, 2, flatten_matrix(A)) == A


def test_mixed_field_operations_rejected():
    A = Matrix(QQ, [[1]])
    B = Matrix(GF(5), [[1]])
    with pytest.raises(Exception):
        A + B
