"""The support-driven bracket, product and matrix kernels against dense
reference formulas written out here, over Q and GF(p)."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.catalog import builtin_algebra
from postlie.errors import DimensionError
from postlie.fields import GF, QQ, Mod
from postlie.lie import LieAlgebra
from postlie.linalg import Matrix
from postlie.structures import BilinearProduct, _lmul, _rmul

FIELDS = [QQ, GF(2), GF(3), GF(5), GF(7)]


def _scalars(field):
    """Nonzero scalars of the field."""
    if field.is_rational:
        return st.fractions(min_value=-3, max_value=3,
                            max_denominator=3).filter(bool)
    return st.integers(1, field.p - 1).map(field.scalar)


def _sparse(draw, field, dim, density=0.4):
    """A length-dim vector whose coordinates are nonzero with probability
    about `density`."""
    return tuple(draw(_scalars(field))
                 if draw(st.floats(0, 1)) < density else field.zero
                 for _ in range(dim))


def _vector(draw, field, dim):
    kind = draw(st.sampled_from(["zero", "unit", "sparse", "dense"]))
    if kind == "zero":
        return (field.zero,) * dim
    if kind == "unit":
        i = draw(st.integers(0, dim - 1))
        return tuple(field.one if k == i else field.zero for k in range(dim))
    return _sparse(draw, field, dim, 0.4 if kind == "sparse" else 1.0)


@st.composite
def tables_and_vectors(draw):
    """A field, a dimension 1-6, a sparse bracket table (slots i < j), a
    sparse product table (any slot), and two operand vectors."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 6))
    brackets = {(i, j): _sparse(draw, field, dim)
                for i in range(dim) for j in range(i + 1, dim)
                if draw(st.booleans())}
    table = {(i, j): _sparse(draw, field, dim)
             for i in range(dim) for j in range(dim) if draw(st.booleans())}
    return (field, dim, brackets, table,
            _vector(draw, field, dim), _vector(draw, field, dim))


def _dense_bracket(field, dim, brackets, x, y):
    """sum over stored i < j of (x_i y_j - x_j y_i) [e_i, e_j]."""
    out = [field.zero] * dim
    for (i, j), vec in brackets.items():
        c = x[i] * y[j] - x[j] * y[i]
        for k in range(dim):
            out[k] = out[k] + c * vec[k]
    return tuple(out)


def _dense_product(field, dim, table, x, y):
    """sum over every slot (i, j) of x_i y_j (e_i . e_j)."""
    out = [field.zero] * dim
    for (i, j), vec in table.items():
        c = x[i] * y[j]
        for k in range(dim):
            out[k] = out[k] + c * vec[k]
    return tuple(out)


def _unit(field, dim, i):
    return tuple(field.one if k == i else field.zero for k in range(dim))


def _assert_scalars(field, values):
    for v in values:
        if field.is_rational:
            assert type(v) is Fraction
        else:
            assert type(v) is Mod and v.p == field.p


def _check(field, got, expected):
    _assert_scalars(field, got)
    assert got == expected


@settings(max_examples=300, deadline=None)
@given(tables_and_vectors())
def test_bracket_and_product_match_dense_formulas(case):
    field, dim, brackets, table, x, y = case
    L = LieAlgebra(field, dim, brackets)
    P = BilinearProduct(field, dim, table)
    _check(field, L.bracket(x, y), _dense_bracket(field, dim, brackets, x, y))
    _check(field, L.bracket(x, x), (field.zero,) * dim)
    _check(field, P.product(x, y), _dense_product(field, dim, table, x, y))
    for i in range(dim):
        e_i = _unit(field, dim, i)
        _check(field, L.bracket(e_i, y),
               _dense_bracket(field, dim, brackets, e_i, y))
        _check(field, _lmul(P, i, y), _dense_product(field, dim, table, e_i, y))
        _check(field, _rmul(P, x, i), _dense_product(field, dim, table, x, e_i))


@st.composite
def matrices_and_vector(draw):
    """Sparse A (r x m), B (m x c) and v (length m) over one field."""
    field = draw(st.sampled_from(FIELDS))
    r, m, c = (draw(st.integers(1, 4)) for _ in range(3))
    A = Matrix(field, [_sparse(draw, field, m) for _ in range(r)])
    B = Matrix(field, [_sparse(draw, field, c) for _ in range(m)])
    return field, A, B, _vector(draw, field, m)


@settings(max_examples=200, deadline=None)
@given(matrices_and_vector())
def test_matrix_product_and_apply_match_dense_formulas(case):
    field, A, B, v = case
    r, m = A.shape
    c = B.ncols

    def dot(u, w):
        acc = field.zero
        for a, b in zip(u, w):
            acc = acc + a * b
        return acc

    AB = A * B
    assert AB.shape == (r, c)
    _assert_scalars(field, AB.flat())
    assert AB.flat() == tuple(dot(A.row(i), B.col(k))
                              for i in range(r) for k in range(c))
    _check(field, A.apply(v), tuple(dot(A.row(i), v) for i in range(r)))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=lambda f: f.name)
def test_wrong_length_operands_raise(field):
    sl2 = builtin_algebra("sl2", field=field)
    product = BilinearProduct(field, 3, {(0, 1): [1, 0, 2], (2, 2): [0, 1, 0]})
    good = (field.one, field.zero, field.zero)
    for bad in ((field.one, field.zero, field.zero, field.scalar(5)),
                (field.zero, field.one)):
        for method in (sl2.bracket, product.product):
            with pytest.raises(DimensionError):
                method(bad, good)
            with pytest.raises(DimensionError):
                method(good, bad)
