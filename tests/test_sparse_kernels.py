"""The support-driven bracket, product and matrix kernels, and the
identity scans built on them, against dense reference formulas written
out here, over Q and GF(p)."""

from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie import lie, structures
from postlie.catalog import all_entries, builtin_algebra
from postlie.errors import (DimensionError, FieldMismatchError,
                            UnsupportedFieldError)
from postlie.fields import GF, QQ, Mod
from postlie.lie import LieAlgebra, check_lie_axioms
from postlie.linalg import Matrix, inverse, support_terms
from postlie.structures import (TAG_CYCLIC, TAG_LR_IDENTITY, TAG_LSA,
                                TAG_NOVIKOV, BilinearProduct, PostLiePair,
                                check_algebra, check_structure,
                                derived_identity_audit, embed_semidirect,
                                induced_bracket, phi_product,
                                prelie_from_two_step, special_case_detect)

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
        _check(field, P.product(e_i, y),
               _dense_product(field, dim, table, e_i, y))
        _check(field, P.product(x, e_i),
               _dense_product(field, dim, table, x, e_i))


@st.composite
def matrices_and_vector(draw):
    """Sparse A and C (r x m), B (m x c), a scalar s and v (length m)
    over one field."""
    field = draw(st.sampled_from(FIELDS))
    r, m, c = (draw(st.integers(1, 4)) for _ in range(3))
    A = Matrix(field, [_sparse(draw, field, m) for _ in range(r)])
    B = Matrix(field, [_sparse(draw, field, c) for _ in range(m)])
    C = Matrix(field, [_sparse(draw, field, m) for _ in range(r)])
    s = draw(_scalars(field)) if draw(st.booleans()) else field.zero
    return field, A, B, C, s, _vector(draw, field, m)


@settings(max_examples=200, deadline=None)
@given(matrices_and_vector())
def test_matrix_product_and_apply_match_dense_formulas(case):
    field, A, B, C, s, v = case
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

    # sums, negation and scaling run on the raw values and read back as
    # the entrywise field formulas
    a, b = A.flat(), C.flat()
    for got, want in ((A + C, [x + y for x, y in zip(a, b)]),
                      (A - C, [x - y for x, y in zip(a, b)]),
                      (-A, [-x for x in a]),
                      (A.scale(s), [s * x for x in a])):
        assert got.shape == (r, m)
        _check(field, got.flat(), tuple(want))
        # equality reads the stored values, so they are canonical too
        assert got == Matrix(field, [want[i * m:(i + 1) * m]
                                     for i in range(r)])
    At = A.transpose()
    assert At.shape == (m, r)
    _check(field, At.flat(), tuple(x for j in range(m) for x in A.col(j)))
    assert At.transpose() == A

    # the matrix of the field scalars and the one of their raw values are
    # one matrix
    raw = Matrix._from_canonical(field, r, m, [field.raw(x) for x in a])
    assert raw == A and hash(raw) == hash(A)
    assert raw.raw_flat() == A.raw_flat()
    _check(field, raw.flat(), a)


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


@pytest.mark.parametrize("field", [QQ, GF(3), GF(7)], ids=lambda f: f.name)
def test_operands_are_read_into_the_field(field):
    """Plain ints are the image of Z and are read in; a residue of another
    field raises rather than mixing silently."""
    sl2 = builtin_algebra("sl2", field=field)
    product = BilinearProduct(field, 3, {(0, 1): [1, 0, 2], (2, 2): [0, 1, 0]})
    x, y = (1, 0, 0), (0, 1, 0)
    as_field = [tuple(map(field.scalar, v)) for v in (x, y)]
    for method in (sl2.bracket, product.product):
        _check(field, method(x, y), method(*as_field))
        foreign = tuple(GF(5).scalar(v) for v in x)
        with pytest.raises(FieldMismatchError):
            method(foreign, as_field[1])


# --- the identity scans against dense oracles -------------------------


@st.composite
def pair_tables(draw):
    """A field, a dimension 1-4, two bracket tables and a product.

    kind "random": sparse random tables, almost always broken.  "zero":
    g = n and the zero product, so the pair identities hold whatever the
    tables.  "phi": n two-step nilpotent, x.y = {phi x, y} for a random
    phi and g the induced bracket, so skew-part and derivation-action
    hold and module-action may or may not.
    """
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["random", "zero", "phi"]))
    if kind == "random":
        g = LieAlgebra(field, dim, {(i, j): _sparse(draw, field, dim)
                                    for i in range(dim)
                                    for j in range(i + 1, dim)})
        n = LieAlgebra(field, dim, {(i, j): _sparse(draw, field, dim)
                                    for i in range(dim)
                                    for j in range(i + 1, dim)})
        product = BilinearProduct(field, dim, {
            (i, j): _sparse(draw, field, dim)
            for i in range(dim) for j in range(dim)})
        return field, dim, g, n, product
    n = _two_step(draw, field, dim)
    if kind == "zero":
        return field, dim, n, n, BilinearProduct.zero(field, dim)
    phi = Matrix(field, [_sparse(draw, field, dim, 0.6) for _ in range(dim)])
    product = phi_product(n, phi)
    return field, dim, induced_bracket(product, n), n, product


def _two_step(draw, field, dim):
    """Brackets of e_1..e_{dim-1} into the span of the last basis vector:
    a Lie algebra of nilpotency class at most 2."""
    last = dim - 1
    return LieAlgebra(field, dim, {
        (i, j): tuple(draw(_scalars(field)) if k == last else field.zero
                      for k in range(dim))
        for i in range(last) for j in range(i + 1, last)
        if draw(st.booleans())})


def _slot_table(dim, basis):
    """{(i, j): basis(i, j)} over every ordered pair with a nonzero value."""
    table = {(i, j): basis(i, j) for i in range(dim) for j in range(dim)}
    return {key: vec for key, vec in table.items() if any(vec)}


class Dense:
    """Dense evaluation of the tables of a pair on field scalars: a
    bilinear map sums x_i y_j B(e_i, e_j) over its slots, every operand
    coordinate included."""

    def __init__(self, field, dim, g, n, product):
        self.field, self.dim = field, dim
        self.gt = _slot_table(dim, g.bracket_basis)
        self.nt = _slot_table(dim, n.bracket_basis)
        self.pt = _slot_table(dim, product.product_basis)

    def e(self, i):
        return _unit(self.field, self.dim, i)

    def _apply(self, table, x, y):
        return _dense_product(self.field, self.dim, table, x, y)

    def P(self, x, y):
        return self._apply(self.pt, x, y)

    def G(self, x, y):
        return self._apply(self.gt, x, y)

    def N(self, x, y):
        return self._apply(self.nt, x, y)


def _sum(field, dim, *terms):
    """sum of (sign, vector) terms, coordinatewise in the field."""
    out = [field.zero] * dim
    for sign, vec in terms:
        for k in range(dim):
            out[k] = out[k] + vec[k] if sign > 0 else out[k] - vec[k]
    return tuple(out)


def _oracle_scan(tuples, delta):
    for idx in tuples:
        d = delta(*idx)
        if any(v != 0 for v in d):
            return False, idx, d
    return True, None, None


def _pairs(n):
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def _pair_any(n):
    return [(i, j, k) for i, j in _pairs(n) for k in range(n)]


def _any_pair(n):
    return [(i, j, k) for i in range(n) for j, k in _pairs(n)]


def _all(n):
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]


def _ordered(n):
    return [(i, j, k) for i, j in _pairs(n) for k in range(j + 1, n)]


def _oracles(D):
    """name -> (tuples, delta) of every identity the scans evaluate."""
    f, n, e = D.field, D.dim, D.e
    P, G, N = D.P, D.G, D.N

    def S(*terms):
        return _sum(f, n, *terms)

    def jacobi(B):
        return lambda i, j, k: S((1, B(B(e(i), e(j)), e(k))),
                                 (1, B(B(e(j), e(k)), e(i))),
                                 (1, B(B(e(k), e(i)), e(j))))

    def module(prod):
        return lambda i, j, k: S((1, prod(G(e(i), e(j)), e(k))),
                                 (-1, prod(e(i), prod(e(j), e(k)))),
                                 (1, prod(e(j), prod(e(i), e(k)))))

    def cyclic_brackets(x, y, z):
        return S((1, N(G(e(x), e(y)), e(z))), (1, N(G(e(y), e(z)), e(x))),
                 (1, N(G(e(z), e(x)), e(y))))

    return {
        "g.jacobi": (_ordered(n), jacobi(G)),
        "n.jacobi": (_ordered(n), jacobi(N)),
        "skew-part": (_pairs(n), lambda i, j: S(
            (1, P(e(i), e(j))), (-1, P(e(j), e(i))),
            (-1, G(e(i), e(j))), (1, N(e(i), e(j))))),
        "module-action": (_pair_any(n), module(P)),
        "derivation-action": (_any_pair(n), lambda i, j, k: S(
            (1, P(e(i), N(e(j), e(k)))), (-1, N(P(e(i), e(j)), e(k))),
            (-1, N(e(j), P(e(i), e(k)))))),
        "associator-skew": (_pair_any(n), lambda i, j, k: S(
            (1, P(N(e(i), e(j)), e(k))), (-1, P(P(e(j), e(i)), e(k))),
            (1, P(e(j), P(e(i), e(k)))), (1, P(P(e(i), e(j)), e(k))),
            (-1, P(e(i), P(e(j), e(k)))))),
        "right-slot-expansion": (_any_pair(n), lambda z, x, y: S(
            (1, P(e(z), G(e(x), e(y)))), (-1, P(e(z), P(e(x), e(y)))),
            (1, P(e(z), P(e(y), e(x)))), (-1, P(e(z), N(e(x), e(y)))))),
        "mixed-rearrangement": (_all(n), lambda x, y, z: S(
            (1, G(P(e(x), e(y)), e(z))), (1, G(e(y), P(e(x), e(z)))),
            (-1, P(e(x), G(e(y), e(z)))),
            (-1, P(P(e(x), e(y)), e(z))), (1, P(P(e(x), e(z)), e(y))),
            (-1, P(e(y), P(e(x), e(z)))), (1, P(e(x), P(e(y), e(z)))),
            (-1, P(e(x), P(e(z), e(y)))), (1, P(e(z), P(e(x), e(y)))))),
        "cyclic-left-action": (_all(n), lambda x, y, z: S(
            (1, P(e(x), N(e(y), e(z)))), (1, P(e(y), N(e(z), e(x)))),
            (1, P(e(z), N(e(x), e(y)))), (-1, cyclic_brackets(x, y, z)))),
        "cyclic-product-action": (_all(n), lambda x, y, z: S(
            (1, P(N(e(x), e(y)), e(z))), (1, P(N(e(y), e(z)), e(x))),
            (1, P(N(e(z), e(x)), e(y))), (-1, cyclic_brackets(x, y, z)),
            (-1, G(N(e(x), e(y)), e(z))), (-1, G(N(e(y), e(z)), e(x))),
            (-1, G(N(e(z), e(x)), e(y))))),
        # the raw product identities behind special_case_detect's tags
        TAG_LSA: (_pair_any(n), lambda i, j, k: S(
            (1, P(P(e(i), e(j)), e(k))), (-1, P(e(i), P(e(j), e(k)))),
            (-1, P(P(e(j), e(i)), e(k))), (1, P(e(j), P(e(i), e(k)))))),
        "left-commutative": (_pair_any(n), lambda i, j, k: S(
            (1, P(e(i), P(e(j), e(k)))), (-1, P(e(j), P(e(i), e(k)))))),
        "right-commutative": (_any_pair(n), lambda i, j, k: S(
            (1, P(P(e(i), e(j)), e(k))), (-1, P(P(e(i), e(k)), e(j))))),
        TAG_CYCLIC: (_all(n), lambda x, y, z: S(
            (1, P(e(x), P(e(y), e(z)))), (1, P(e(y), P(e(x), e(z)))),
            (1, P(e(z), P(e(x), e(y)))), (-1, P(P(e(y), e(z)), e(x))),
            (-1, P(P(e(x), e(z)), e(y))), (-1, P(P(e(x), e(y)), e(z))))),
    }


def _expect(field, item, tuples, delta):
    passed, witness, discrepancy = _oracle_scan(tuples, delta)
    assert (item.passed, item.witness, item.discrepancy) == (
        passed, witness, discrepancy), item.name
    if not passed:
        _assert_scalars(field, item.discrepancy)


@settings(max_examples=100, deadline=None)
@given(pair_tables())
def test_identity_scans_match_dense_oracles(case):
    field, dim, g, n, product = case
    D = Dense(field, dim, g, n, product)
    oracle = _oracles(D)

    def expect(item, name=None):
        _expect(field, item, *oracle[name or item.name])

    expect(check_lie_axioms(g).item("jacobi"), "g.jacobi")
    expect(check_lie_axioms(n).item("jacobi"), "n.jacobi")
    for item in check_structure(g, n, product).items:
        expect(item)
    algebra = check_algebra(product, n)
    expect(algebra.item("bracket-jacobi"), "n.jacobi")
    expect(algebra.item("associator-skew"))
    expect(algebra.item("derivation-action"))
    pair = PostLiePair(g, n, product)
    for item in derived_identity_audit(pair).items:
        expect(item)

    # the tags only read the raw product identities; the pair is marked
    # validated so that broken tables reach them too
    pair._validated = True
    tags = special_case_detect(pair).tags
    holds = {name: _oracle_scan(*oracle[name])[0]
             for name in (TAG_LSA, TAG_CYCLIC, "left-commutative",
                          "right-commutative")}
    assert (TAG_LSA in tags) == holds[TAG_LSA]
    assert (TAG_CYCLIC in tags) == holds[TAG_CYCLIC]
    assert (TAG_LR_IDENTITY in tags) == (holds["left-commutative"]
                                         and holds["right-commutative"])
    assert (TAG_NOVIKOV in tags) == (holds[TAG_LSA]
                                     and holds["right-commutative"])


@st.composite
def near_miss_tables(draw):
    """`pair_tables` with one coordinate of one slot of g, n or the
    product moved by a nonzero scalar.  The passing kinds become near
    misses, so most draws fail, and often not at the first tuple."""
    field, dim, g, n, product = draw(pair_tables())
    tables = {"g": g, "n": n, "product": product}
    which = draw(st.sampled_from(["g", "n", "product"] if dim > 1
                                 else ["product"]))
    old = tables[which]
    slots = _pairs(dim) if which != "product" else [
        (i, j) for i in range(dim) for j in range(dim)]
    key = draw(st.sampled_from(slots))
    k = draw(st.integers(0, dim - 1))
    vec = list(old.table.get(key, (field.zero,) * dim))
    vec[k] = vec[k] + draw(_scalars(field))
    tables[which] = type(old)(field, dim, {**old.table, key: vec})
    return field, dim, tables["g"], tables["n"], tables["product"]


@settings(max_examples=150, deadline=None)
@given(near_miss_tables())
def test_near_miss_scans_match_dense_oracles(case):
    """check_lie_axioms, check_structure and check_algebra against the
    dense oracles, item by item: passed, witness and discrepancy."""
    field, dim, g, n, product = case
    oracle = _oracles(Dense(field, dim, g, n, product))
    _expect(field, check_lie_axioms(g).item("jacobi"), *oracle["g.jacobi"])
    _expect(field, check_lie_axioms(n).item("jacobi"), *oracle["n.jacobi"])
    for item in check_structure(g, n, product).items:
        _expect(field, item, *oracle[item.name])
    algebra = check_algebra(product, n)
    _expect(field, algebra.item("bracket-jacobi"), *oracle["n.jacobi"])
    for name in ("associator-skew", "derivation-action"):
        _expect(field, algebra.item(name), *oracle[name])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_prelie_scans_match_dense_oracles(data):
    """x o y = x.y + {x,y}/2 on a two-step n, with g and the product
    random; the pair is marked validated so broken tables reach the
    scans."""
    field = data.draw(st.sampled_from(FIELDS))
    dim = data.draw(st.integers(1, 4))
    n = _two_step(data.draw, field, dim)
    g = LieAlgebra(field, dim, {(i, j): _sparse(data.draw, field, dim)
                                for i, j in _pairs(dim)})
    product = BilinearProduct(field, dim, {
        (i, j): _sparse(data.draw, field, dim)
        for i in range(dim) for j in range(dim)})
    pair = PostLiePair(g, n.validate(), product)
    pair._validated = True
    if field.characteristic == 2:
        with pytest.raises(UnsupportedFieldError):
            prelie_from_two_step(pair)
        return
    prelie, report = prelie_from_two_step(pair)
    half = field.scalar(Fraction(1, 2))
    D = Dense(field, dim, g, n, product)
    dense_o = {(i, j): _sum(field, dim, (1, D.P(D.e(i), D.e(j))),
                            (1, tuple(half * v for v in D.N(D.e(i), D.e(j)))))
               for i in range(dim) for j in range(dim)}
    for (i, j), vec in dense_o.items():
        _check(field, prelie.product_basis(i, j), vec)
    # from here on the dense product is o, so the module-action oracle
    # is left-symmetry of o
    D.pt = {key: vec for key, vec in dense_o.items() if any(vec)}
    _expect(field, report.item("commutator-matches-bracket"), _pairs(dim),
            lambda i, j: _sum(field, dim, (1, D.P(D.e(i), D.e(j))),
                              (-1, D.P(D.e(j), D.e(i))),
                              (-1, D.G(D.e(i), D.e(j)))))
    _expect(field, report.item("left-symmetry"),
            *_oracles(D)["module-action"])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_phi_product_and_induced_bracket_match_the_bracket(data):
    field = data.draw(st.sampled_from(FIELDS))
    dim = data.draw(st.integers(1, 4))
    n = LieAlgebra(field, dim, {(i, j): _sparse(data.draw, field, dim)
                                for i, j in _pairs(dim)})
    phi = Matrix(field, [_sparse(data.draw, field, dim, 0.6)
                         for _ in range(dim)])
    product = phi_product(n, phi)
    for i in range(dim):
        for j in range(dim):
            _check(field, product.product_basis(i, j),
                   n.bracket(phi.col(i), _unit(field, dim, j)))
    induced = induced_bracket(product, n)
    for i, j in _pairs(dim):
        _check(field, induced.bracket_basis(i, j), _sum(
            field, dim, (1, product.product_basis(i, j)),
            (-1, product.product_basis(j, i)), (1, n.bracket_basis(i, j))))


@st.composite
def raw_tables(draw):
    """A field, a dimension and a table of raw values: ints of any sign
    (and Fractions over Q), with all-zero and multiple-of-p slots."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 4))
    if field.is_rational:
        value = st.one_of(st.integers(-20, 20),
                          st.fractions(min_value=-5, max_value=5,
                                       max_denominator=6))
    else:
        value = st.one_of(st.integers(-3 * field.p, 3 * field.p),
                          st.integers(-3, 3).map(lambda t: t * field.p))
    table = {}
    for i in range(dim):
        for j in range(dim):
            kind = draw(st.sampled_from(["absent", "zero", "values"]))
            if kind == "zero":
                table[(i, j)] = [0] * dim
            elif kind == "values":
                table[(i, j)] = [draw(value) for _ in range(dim)]
    return field, dim, table


@settings(max_examples=150, deadline=None)
@given(raw_tables())
def test_from_raw_tables_equal_the_coercing_constructors(case):
    field, dim, table = case
    P = BilinearProduct.from_raw(field, dim, table)
    assert P == BilinearProduct(field, dim, table)
    assert list(P.table) == sorted(P.table)
    for vec in P.table.values():
        _assert_scalars(field, vec)
    upper = {(i, j): vec for (i, j), vec in table.items() if i < j}
    L = LieAlgebra.from_raw(field, dim, upper, name="raw")
    assert L == LieAlgebra(field, dim, upper)
    assert L.name == "raw" and not L.validated
    for vec in L.brackets.values():
        _assert_scalars(field, vec)


@settings(max_examples=150, deadline=None)
@given(raw_tables(), st.data())
def test_from_raw_products_agree_with_the_coercing_constructor(case, data):
    # unreduced residues, multiples of p, ints and Fractions over Q: both
    # constructors store the same reduced raw values and read alike
    field, dim, table = case
    P = BilinearProduct.from_raw(field, dim, table)
    Q = BilinearProduct(field, dim, table)
    assert P.table == Q.table
    assert list(P.table) == sorted(P.table)
    assert P.terms() == Q.terms() == support_terms(field, P.table)
    assert P == Q and hash(P) == hash(Q)
    assert P.raw == Q.raw and list(P.raw) == list(Q.raw)
    assert P.is_zero() == Q.is_zero() == (not P.table)
    for vec in P.raw.values():
        assert any(vec)
        for v in vec:
            if field.is_rational:
                assert type(v) is Fraction
            else:
                assert type(v) is int and 0 <= v < field.p
    x, y = _sparse(data.draw, field, dim), _sparse(data.draw, field, dim)
    got = P.product(x, y)
    _assert_scalars(field, got)
    assert got == Q.product(x, y)
    expected = [field.zero] * dim
    for (i, j), vec in P.table.items():
        expected = [e + x[i] * y[j] * v for e, v in zip(expected, vec)]
    assert got == tuple(expected)


# --- the one table class under both brackets and products -------------


def _invertible(draw, field, dim):
    """A random invertible matrix P L U: a permutation, a unit lower
    triangular and an invertible upper triangular factor."""
    perm = draw(st.permutations(range(dim)))

    def entry():
        return draw(_scalars(field)) if draw(st.booleans()) else field.zero

    def matrix(value):
        return Matrix(field, [[value(i, j) for j in range(dim)]
                              for i in range(dim)])

    P = matrix(lambda i, j: field.one if j == perm[i] else field.zero)
    L = matrix(lambda i, j: field.one if i == j else
               entry() if i > j else field.zero)
    U = matrix(lambda i, j: draw(_scalars(field)) if i == j else
               entry() if i < j else field.zero)
    return P * L * U


@st.composite
def shared_tables(draw):
    """A field, a dimension 1-3, LieAlgebra or BilinearProduct, a sparse
    table of field scalars on that class's slots, and an invertible T."""
    field = draw(st.sampled_from(FIELDS))
    dim = draw(st.integers(1, 3))
    cls = draw(st.sampled_from([LieAlgebra, BilinearProduct]))
    table = {(i, j): _sparse(draw, field, dim)
             for i in range(dim) for j in range(dim)
             if (i < j or cls is BilinearProduct) and draw(st.booleans())}
    return field, dim, cls, table, _invertible(draw, field, dim)


@settings(max_examples=200, deadline=None)
@given(shared_tables())
def test_brackets_and_products_share_one_table(case):
    field, dim, cls, table, T = case
    Tinv = inverse(T)
    built = cls(field, dim, table)
    from_raw = cls.from_raw(field, dim, {key: [field.raw(c) for c in vec]
                                         for key, vec in table.items()})
    moved = built.change_basis(T)
    back = moved.change_basis(Tinv)
    if cls is LieAlgebra:
        basis, apply = built.bracket_basis, built.bracket
    else:
        basis, apply = built.product_basis, built.product
    scalar_terms = support_terms(field, _slot_table(dim, basis))
    for other in (from_raw, back):
        assert other == built and hash(other) == hash(built)
        assert other.raw == built.raw and list(other.raw) == list(built.raw)
        assert other.table == built.table
    for t in (built, from_raw, back):
        assert t.terms() == scalar_terms
        assert list(t.table) == list(t.raw) == sorted(t.raw)
        if cls is LieAlgebra:
            assert t.brackets == t.table
    # the moved table from its definition, T^-1 B(T e_i, T e_j)
    dense = {(i, j): Tinv.apply(apply(T.col(i), T.col(j)))
             for i in range(dim) for j in range(dim)
             if i < j or cls is BilinearProduct}
    assert moved.raw == cls(field, dim, dense).raw
    # the same slots in the other class are another object
    upper = {key: vec for key, vec in table.items() if key[0] < key[1]}
    assert LieAlgebra(field, dim, upper) != BilinearProduct(field, dim, upper)
    assert BilinearProduct(field, dim, upper) != LieAlgebra(field, dim, upper)


# --- scans on tables scaled to ints over Q -----------------------------


def _non_integral():
    return st.fractions(min_value=-4, max_value=4,
                        max_denominator=12).filter(lambda q: q.denominator > 1)


def _unscaled(scan, *args):
    """`scan(*args)` with the common denominator read as 1: every scan
    then sums the Fraction tables themselves, unscaled."""
    def one(*tables):
        return 1
    with mock.patch.object(structures, "common_denominator", one), \
            mock.patch.object(lie, "common_denominator", one):
        return scan(*args)


@st.composite
def rational_pair_tables(draw):
    """Over Q, a dimension 2-4 and non-integral tables: "random" (sparse
    random tables, broken almost everywhere) or "corrupted" (a phi pair
    on a two-step n, whose skew-part and derivation-action hold, with one
    product coordinate moved by a non-integral rational, so that the
    identities reading it have witnesses)."""
    dim = draw(st.integers(2, 4))
    if draw(st.booleans()):
        def bracket():
            return LieAlgebra(QQ, dim, {(i, j): _sparse(draw, QQ, dim)
                                        for i, j in _pairs(dim)})
        product = BilinearProduct(QQ, dim, {
            (i, j): _sparse(draw, QQ, dim)
            for i in range(dim) for j in range(dim)})
        return "random", bracket(), bracket(), product
    n = _two_step(draw, QQ, dim).validate()
    phi = Matrix(QQ, [_sparse(draw, QQ, dim, 0.6) for _ in range(dim)])
    product = phi_product(n, phi)
    key = (draw(st.integers(0, dim - 1)), draw(st.integers(0, dim - 1)))
    vec = list(product.product_basis(*key))
    vec[draw(st.integers(0, dim - 1))] += draw(_non_integral())
    corrupted = BilinearProduct(QQ, dim, {**product.table, key: vec})
    return "corrupted", induced_bracket(product, n), n, corrupted


def _same_reports(got, want):
    assert got == want
    for item in got.items:
        if not item.passed:
            _assert_scalars(QQ, item.discrepancy)


@settings(max_examples=40, deadline=None)
@given(rational_pair_tables())
def test_scaled_scans_match_the_unscaled_fraction_scans(case):
    """Every scan on tables scaled by their common denominator D reports
    what the scan on the Fractions reports: pass flags, witnesses and
    discrepancies, divided back by D for skew-part and the commutator
    item and by D**2 for the identities of degree 2."""
    kind, g, n, product = case
    pair = PostLiePair(g, n, product)
    for scan, args in ((check_lie_axioms, (g,)), (check_lie_axioms, (n,)),
                       (check_structure, (g, n, product)),
                       (check_algebra, (product, n)),
                       (derived_identity_audit, (pair,))):
        _same_reports(scan(*args), _unscaled(scan, *args))
    if kind == "corrupted":
        pair._validated = True
        prelie, report = prelie_from_two_step(pair)
        again, unscaled = _unscaled(prelie_from_two_step, pair)
        assert prelie == again
        _same_reports(report, unscaled)


def test_scaled_scans_divide_back_by_the_degree():
    """One broken pair with denominator 6: skew-part (degree 1) and
    module-action (degree 2) report the Fraction discrepancies."""
    g = LieAlgebra(QQ, 2, {(0, 1): {0: Fraction(1, 2)}})
    n = LieAlgebra(QQ, 2, {})
    product = BilinearProduct(QQ, 2, {(0, 0): {0: Fraction(1, 3)},
                                      (0, 1): {1: Fraction(1, 2)}})
    assert structures.common_denominator(g, n, product) == 6
    report = check_structure(g, n, product)
    skew = report.item("skew-part")
    assert skew.witness == (0, 1)
    assert skew.discrepancy == (Fraction(-1, 2), Fraction(1, 2))
    module = report.item("module-action")
    # [e1,e2].e1 - e1.(e2.e1) + e2.(e1.e1) = (1/2)(1/3) e1
    assert module.witness == (0, 1, 0)
    assert module.discrepancy == (Fraction(1, 6), Fraction(0))
    _same_reports(report, _unscaled(check_structure, g, n, product))


def _rational_catalog_pairs():
    pairs = []
    for entry in all_entries():
        pairs += [entry.build_sample(sample) for sample in entry.samples]
    return [pair for pair in pairs if pair.dim == 3]


@settings(max_examples=15, deadline=None)
@given(st.data())
def test_scaled_homomorphism_scan_matches_the_fraction_formula(data):
    """A catalog pair in a random rational basis, with its first bracket
    moved by a non-integral rational in one coordinate (or not): the
    homomorphism scan of `embed_semidirect`, on ints, reports the first
    pair where M [e_i, e_j] - [M e_i, M e_j], summed on Fractions, is
    nonzero, and that difference."""
    pair = data.draw(st.sampled_from(_rational_catalog_pairs()))
    T = _invertible(data.draw, QQ, 3)
    g, n = pair.g.change_basis(T), pair.n.change_basis(T)
    if data.draw(st.booleans()):
        key = data.draw(st.sampled_from(_pairs(3)))
        vec = list(g.bracket_basis(*key))
        vec[data.draw(st.integers(0, 2))] += data.draw(_non_integral())
        g = LieAlgebra(QQ, 3, {**g.brackets, key: vec})
    moved = PostLiePair(g, n, pair.product.change_basis(T))
    moved._validated = True
    emb = embed_semidirect(moved)
    M, size = emb.matrix, emb.semidirect.dim
    want = (True, None, None)
    for i, j in _pairs(3):
        gb = g.bracket_basis(i, j)
        lhs = [sum((M.entry(r, t) * gb[t] for t in range(3)), Fraction(0))
               for r in range(size)]
        rhs = emb.semidirect.bracket(emb.images[i], emb.images[j])
        diff = tuple(a - b for a, b in zip(lhs, rhs))
        if any(diff):
            want = (False, (i, j), diff)
            break
    item = emb.report.item("homomorphism")
    assert (item.passed, item.witness, item.discrepancy) == want
    if not item.passed:
        _assert_scalars(QQ, item.discrepancy)
