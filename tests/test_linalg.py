"""Exact linear algebra: rref, solving, spans, nilpotency."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.errors import DimensionError, FieldMismatchError
from postlie.fields import GF, QQ
from postlie.linalg import (Matrix, commutator, coordinates_in_span,
                            coordinates_in_span_many, inverse,
                            is_nilpotent_matrix, matrix_from_flat, nullspace,
                            rank, rref, unit_vector, vadd, vscale, vsub,
                            vzero)
from test_lie import span_basis

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


def test_coordinates_in_span_frozen_example():
    # one dependent equation: x + 2y = 1 stated twice, with the columns
    # (1, 2) and (2, 4) as the spanning list
    for field in (QQ, GF(5)):
        coords = coordinates_in_span([(1, 2), (2, 4)], (1, 2), field)
        # the free coefficient on the dependent column is zero
        assert coords == (1, 0)


def test_coordinates_in_span_inconsistent():
    for field in (QQ, GF(5)):
        assert coordinates_in_span([(1, 2), (2, 4)], (1, 3), field) is None


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


SOLVE_FIELDS = (QQ, GF(2), GF(3), GF(5), GF(7))


@st.composite
def spans(draw, square=False):
    """(field, height, vectors, entry): height 1..4 and 0..5 vectors
    (height of them when square), a quarter of them combinations of the
    ones before, so that dependent lists are common, over Q or GF(p) for
    p up to 7.  `entry` draws a coordinate: over Q with denominators up
    to 6, so that each row mixes them."""
    field = draw(st.sampled_from(SOLVE_FIELDS))
    height = draw(st.integers(1, 4))
    k = height if square else draw(st.integers(0, 5))
    entry = (st.fractions(min_value=-3, max_value=3, max_denominator=6)
             if field.p is None else st.integers(0, field.p - 1))
    vectors = []
    for _ in range(k):
        if vectors and draw(st.integers(0, 3)) == 0:
            coeffs = [field.scalar(draw(entry)) for _ in vectors]
            vectors.append(_combination(field, height, coeffs, vectors))
        else:
            vectors.append(tuple(field.scalar(draw(entry))
                                 for _ in range(height)))
    return field, height, vectors, entry


def _combination(field, height, coeffs, vectors):
    """sum over j of coeffs[j] vectors[j], on field scalars."""
    return tuple(sum((c * v[i] for c, v in zip(coeffs, vectors)), field.zero)
                 for i in range(height))


@settings(max_examples=200, deadline=None)
@given(spans(square=True))
def test_inverse_round_trip(span):
    field, n, cols, _ = span
    A = Matrix.from_cols(field, cols)
    inv = inverse(A)
    assert (inv is None) is (rank(A) < n)
    if inv is not None:
        ident = Matrix.identity(field, n)
        assert A * inv == ident and inv * A == ident


@settings(max_examples=40, deadline=None)
@given(gf5_matrix(2, 2), gf5_matrix(2, 2), gf5_matrix(2, 2))
def test_matrix_multiplication_associative(A, B, C):
    assert (A * B) * C == A * (B * C)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_coordinates_in_span_agrees_with_matrix_action(data):
    field, height, vectors, entry = data.draw(spans())
    targets = []
    for _ in range(data.draw(st.integers(1, 3))):
        if vectors and data.draw(st.booleans()):
            coeffs = [field.scalar(data.draw(entry)) for _ in vectors]
            targets.append(_combination(field, height, coeffs, vectors))
        else:
            targets.append(tuple(field.scalar(data.draw(entry))
                                 for _ in range(height)))
    k = len(vectors)
    free = set(range(k))
    if vectors:
        free -= set(rref(Matrix.from_cols(field, vectors))[1])
    for t, x in zip(targets, coordinates_in_span_many(vectors, targets,
                                                      field)):
        # None exactly when t lies outside the span
        assert (x is None) is (rank(Matrix.from_cols(field, vectors + [t]))
                               > rank(Matrix.from_cols(field, vectors)))
        if x is not None:
            assert len(x) == k
            assert _combination(field, height, x, vectors) == t
            assert all(x[j] == 0 for j in free)
            assert all(type(v) is type(field.one) for v in x)


def test_the_solve_refuses_bad_input_and_handles_empty_spans():
    with pytest.raises(DimensionError):
        coordinates_in_span_many([(1, 2), (1, 2, 3)], [(0, 0)], QQ)
    with pytest.raises(DimensionError):
        coordinates_in_span_many([(1, 2), (3, 4)], [(0, 0, 0)], QQ)
    with pytest.raises(FieldMismatchError):
        coordinates_in_span_many([(GF(5).one, 0)], [(1, 0)], GF(7))
    with pytest.raises(FieldMismatchError):
        coordinates_in_span_many([(1, 0)], [(GF(5).one, 0)], QQ)
    assert inverse(Matrix(QQ, [])) == Matrix(QQ, [])
    # two vectors of height 0 span only the empty vector, with two
    # coefficients
    assert coordinates_in_span_many([(), ()], [()], QQ) == [(0, 0)]
    assert coordinates_in_span_many([], [(0, 0), (0, 1)], GF(3)) == \
        [(), None]


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
    assert matrix_from_flat(QQ, 2, A.flat()) == A


def test_mixed_field_operations_rejected():
    A = Matrix(QQ, [[1]])
    B = Matrix(GF(5), [[1]])
    with pytest.raises(Exception):
        A + B
