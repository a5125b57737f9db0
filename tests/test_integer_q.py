"""The exact layer over Q on ints: fraction-free `rref`, integer sampled
nilpotency, batched span coordinates, integer matrix products and the
trace-form Killing matrix agree with the Fraction forms, and every scalar
handed back over Q is a Fraction, never an int or a float."""

import random
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postlie.catalog import all_entries, builtin_algebra
from postlie.errors import (DimensionError, ParameterError, StructureError,
                            UnsupportedFieldError)
from postlie.fields import GF, QQ
from postlie.lie import (LieAlgebra, killing_is_semisimple,
                         semidirect_with_derivations)
from postlie.report import scan_item
from postlie.linalg import (Matrix, commutator, contract,
                            coordinates_in_span, coordinates_in_span_many,
                            integral_form, inverse, is_nilpotent_int,
                            is_nilpotent_matrix, nullspace, rref, sparse,
                            support_terms, unit_vector)
from postlie.structures import (BilinearProduct, PostLiePair, _combination,
                                check_structure, derived_identity_audit,
                                is_complete_structure, left_mult_matrix,
                                left_multiplications,
                                sampled_left_mult_nilpotency)

rational = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=-50, max_value=50, max_denominator=12))


def _fraction_rref(matrix):
    """Gauss-Jordan on the Fractions themselves, first nonzero row as
    pivot: the elimination `rref` ran over Q before it went fraction-free,
    kept here as the oracle."""
    nrows, ncols = matrix.shape
    flat = matrix.flat()
    rows = [list(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    pivots = []
    r = 0
    for c in range(ncols):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        piv = rows[r][c]
        row = rows[r] = [v / piv if v else v for v in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [v - f * w if w else v
                           for v, w in zip(rows[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows], tuple(pivots)


@st.composite
def rational_matrix(draw, max_rows=6, max_cols=9):
    """A rational matrix of up to 6 x 9 whose later rows are often zero,
    copies, multiples or sums of earlier ones."""
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(
            ["random", "random", "zero", "copy", "multiple", "sum"]))
        if kind == "zero":
            row = [Fraction(0)] * ncols
        elif kind != "random" and rows:
            a = draw(st.sampled_from(rows))
            if kind == "copy":
                row = list(a)
            elif kind == "multiple":
                c = draw(rational.filter(bool))
                row = [c * v for v in a]
            else:
                b = draw(st.sampled_from(rows))
                row = [v + w for v, w in zip(a, b)]
        else:
            row = [draw(rational) for _ in range(ncols)]
        rows.append(row)
    return Matrix(QQ, rows)


def _all_fractions(values):
    return all(type(v) is Fraction for v in values)


@settings(max_examples=300, deadline=None)
@given(rational_matrix())
def test_integer_rref_matches_the_fraction_elimination(A):
    R, pivots = rref(A)
    rows, expected = _fraction_rref(A)
    assert pivots == expected
    assert R.rows() == rows
    assert R.shape == A.shape
    assert _all_fractions(R.flat())


def test_rref_of_the_empty_and_zero_matrices():
    assert rref(Matrix(QQ, [])) == (Matrix(QQ, []), ())
    zero = Matrix.zeros(QQ, 3, 4)
    R, pivots = rref(zero)
    assert R == zero and pivots == () and _all_fractions(R.flat())


@settings(max_examples=150, deadline=None)
@given(rational_matrix(max_rows=5, max_cols=5),
       st.lists(rational, min_size=5, max_size=5))
def test_solvers_hand_back_fractions(A, b):
    """int / int is a float in Python: nothing built on the integer
    elimination may leak an int or a float into a scalar over Q."""
    for v in nullspace(A):
        assert _all_fractions(v)
    x = coordinates_in_span([A.col(j) for j in range(A.ncols)],
                            b[:A.nrows], QQ)
    assert _all_fractions(x or ())
    if A.nrows == A.ncols:
        inv = inverse(A)
        if inv is not None:
            assert _all_fractions(inv.flat())
            assert A * inv == Matrix.identity(QQ, A.nrows)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 4), st.data())
def test_contract_on_integral_tables_hands_back_fractions(dim, data):
    slots = {(i, j): tuple(data.draw(st.integers(-3, 3))
                           for _ in range(dim))
             for i in range(dim) for j in range(dim)}
    terms = support_terms(QQ, slots)
    # integral coordinates become int operands, others stay Fractions
    for vec in terms.values():
        assert all(type(v) is int for _, v in vec)
    x = tuple(data.draw(st.integers(-3, 3)) for _ in range(dim))
    y = tuple(data.draw(rational) for _ in range(dim))
    for u, v in ((x, x), (x, y), (y, x)):
        got = contract(QQ, dim, terms, u, v)
        assert _all_fractions(got)
        want = [sum((Fraction(a) * b * slots[(i, j)][k]
                     for i, a in enumerate(u) for j, b in enumerate(v)),
                    Fraction(0)) for k in range(dim)]
        assert list(got) == want


def test_sparse_operands_over_q():
    assert sparse(QQ, (Fraction(2), Fraction(0), Fraction(1, 2), 3)) == [
        (0, 2), (2, Fraction(1, 2)), (3, 3)]
    assert [type(v) for _, v in sparse(QQ, (Fraction(-4), 7))] == [int, int]


def test_scan_witnesses_are_fractions():
    """A broken integral pair: the identity scans sum ints only, and the
    discrepancies they report must still be Fractions."""
    g = builtin_algebra("n3")
    n = builtin_algebra("abelian", dim=3)
    product = BilinearProduct(QQ, 3, {(0, 1): {2: 3}, (0, 0): {1: 2}})
    report = check_structure(g, n, product)
    assert not report.passed
    pair = PostLiePair(g, n, product)
    items = report.items + derived_identity_audit(pair).items
    broken = [item for item in items if not item.passed]
    assert broken
    for item in broken:
        assert _all_fractions(item.discrepancy) and any(item.discrepancy)
    # a delta of plain ints, as the scans over integral tables produce
    def delta(acc, idx):
        acc[1] += 3 * idx[0]

    item = scan_item("ints", QQ, 2, [(0,), (1,)], delta)
    assert item.witness == (1,) and item.discrepancy == (0, 3)
    assert _all_fractions(item.discrepancy)


def _old_sampled_left_mult_nilpotency(pair, samples=50, seed=0):
    """The Q branch of `sampled_left_mult_nilpotency` on Fraction
    matrices, as it ran before it moved to ints: the oracle."""
    rng = random.Random(seed)
    mats = left_multiplications(pair)
    for _ in range(samples):
        x = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                  for _ in range(pair.dim))
        if not is_nilpotent_matrix(_combination(QQ, pair.dim, mats, x)):
            return False
    return True


def _catalog_pairs():
    rng = random.Random(5)
    pairs = []
    for entry in all_entries():
        pairs += [entry.build_sample(sample) for sample in entry.samples]
        for _ in range(2 if entry.parameters else 0):
            params = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                      for name in entry.parameters}
            try:
                pairs.append(entry.build_sample(params))
            except ParameterError:
                pass
    return pairs


def test_integer_sampled_nilpotency_matches_the_fraction_test():
    answers = set()
    for pair in _catalog_pairs():
        for seed in range(3):
            for samples in (1, 50):
                got = sampled_left_mult_nilpotency(pair, samples, seed)
                assert got is _old_sampled_left_mult_nilpotency(
                    pair, samples, seed), (pair, seed, samples)
                answers.add(got)
    assert answers == {True, False}


def _old_fp_sampled_left_mult_nilpotency(pair, samples=50, seed=0):
    """The GF(p) branch of `sampled_left_mult_nilpotency` on `Mod`
    matrices, as it ran before it moved to residue ints: the oracle."""
    rng = random.Random(seed)
    field, dim = pair.field, pair.dim
    mats = left_multiplications(pair)
    for _ in range(samples):
        x = tuple(field.scalar(rng.randrange(field.characteristic))
                  for _ in range(dim))
        if not is_nilpotent_matrix(_combination(field, dim, mats, x)):
            return False
    return True


def _fp_catalog_pairs(field):
    """Every catalog sample that builds into a valid pair over `field`."""
    pairs = []
    for entry in all_entries():
        for sample in entry.samples:
            try:
                pairs.append(entry.build_sample(sample, field=field))
            except (ParameterError, StructureError, UnsupportedFieldError):
                pass
    return pairs


@pytest.mark.parametrize("p", [3, 5])
def test_residue_sampled_nilpotency_matches_the_mod_test(p):
    answers = set()
    pairs = _fp_catalog_pairs(GF(p))
    assert pairs
    for pair in pairs:
        for seed in range(3):
            for samples in (1, 50):
                got = sampled_left_mult_nilpotency(pair, samples, seed)
                assert got is _old_fp_sampled_left_mult_nilpotency(
                    pair, samples, seed), (pair, seed, samples)
                answers.add(got)
    assert answers == {True, False}


def test_sampled_nilpotency_tests_multiples_of_the_drawn_points(monkeypatch):
    import postlie.structures as structures
    tested = []
    original = structures.is_nilpotent_int
    monkeypatch.setattr(structures, "is_nilpotent_int",
                        lambda flat, n: tested.append(flat) or original(flat, n))
    pair = next(p for p in _catalog_pairs() if p.dim == 3
                and not p.product.is_zero() and is_complete_structure(p))
    assert sampled_left_mult_nilpotency(pair, samples=20, seed=4)
    assert len(tested) == 20
    rng = random.Random(4)
    for flat in tested:
        x = [Fraction(rng.randint(-9, 9), rng.randint(1, 9))
             for _ in range(3)]
        want = left_mult_matrix(pair, x).flat()
        ratios = {Fraction(m) / w for m, w in zip(flat, want) if w}
        assert len(ratios) <= 1 and all(r > 0 for r in ratios)
        assert all(m == 0 for m, w in zip(flat, want) if not w)


@st.composite
def operator_family(draw):
    """dim rational operators, often strictly upper triangular and then
    conjugated, so that every combination of them is nilpotent."""
    dim = draw(st.integers(1, 4))
    upper = draw(st.booleans())
    mats = [Matrix(QQ, [[draw(rational) if not upper or j > i else 0
                         for j in range(dim)] for i in range(dim)])
            for _ in range(dim)]
    if upper and draw(st.booleans()):
        T = Matrix(QQ, [[1 if i == j else draw(rational) if i > j else 0
                         for j in range(dim)] for i in range(dim)])
        Tinv = inverse(T)
        mats = [T * M * Tinv for M in mats]
    draws = [(draw(st.integers(-9, 9)), draw(st.integers(1, 9)))
             for _ in range(dim)]
    return dim, mats, draws


@settings(max_examples=300, deadline=None)
@given(operator_family())
def test_integer_nilpotency_matches_is_nilpotent_matrix(case):
    dim, mats, draws = case
    x = [Fraction(num, den) for num, den in draws]
    want = is_nilpotent_matrix(_combination(QQ, dim, mats, x))
    # the scaling of sampled_left_mult_nilpotency: one lcm for all the
    # operators, one for the draws
    size = dim * dim
    flat = integral_form([v for M in mats for v in M.flat()])[0]
    d = lcm(*[den for _, den in draws])
    M = [0] * size
    for t, (num, den) in enumerate(draws):
        c = num * (d // den)
        M = [a + c * b for a, b in zip(M, flat[t * size:(t + 1) * size])]
    assert is_nilpotent_int(M, dim) is want
    assert is_nilpotent_int(integral_form(mats[0].flat())[0],
                            dim) is is_nilpotent_matrix(mats[0])


def test_integer_nilpotency_needs_every_power():
    # the shift on Q^4 vanishes at the fourth power and not before
    shift = [1 if j == i + 1 else 0 for i in range(4) for j in range(4)]
    assert is_nilpotent_int(shift, 4)
    assert not is_nilpotent_int([1] + [0] * 15, 4)
    assert is_nilpotent_int([], 0)
    # with a modulus the entries are read mod p: 5 is zero mod 5, and the
    # shift plus 5 times the identity is nilpotent mod 5 only
    assert is_nilpotent_int([5], 1, 5) and not is_nilpotent_int([5], 1)
    shifted = [v + 5 * (k % 5 == 0) for k, v in enumerate(shift)]
    assert is_nilpotent_int(shifted, 4, 5)
    assert not is_nilpotent_int(shifted, 4)


@st.composite
def span_and_targets(draw):
    field = draw(st.sampled_from([QQ, QQ, GF(2), GF(5)]))
    value = rational if field.is_rational else st.integers(0, field.p - 1)
    height = draw(st.integers(1, 6))
    k = draw(st.integers(0, 5))
    vectors = []
    for _ in range(k):
        if vectors and draw(st.booleans()):
            vectors.append(draw(st.sampled_from(vectors)))
        else:
            vectors.append(tuple(draw(value) for _ in range(height)))
    targets = [tuple(field.scalar(0) for _ in range(height))]
    for _ in range(draw(st.integers(1, 5))):
        if vectors and draw(st.booleans()):
            coeffs = [draw(value) for _ in vectors]
            targets.append(tuple(
                sum((field.scalar(c) * field.scalar(v[r])
                     for c, v in zip(coeffs, vectors)), field.zero)
                for r in range(height)))
        else:
            targets.append(tuple(draw(value) for _ in range(height)))
    return field, vectors, targets


@settings(max_examples=200, deadline=None)
@given(span_and_targets())
def test_batched_coordinates_match_one_solve_per_target(case):
    field, vectors, targets = case
    got = coordinates_in_span_many(vectors, targets, field)
    want = [coordinates_in_span(vectors, t, field) for t in targets]
    assert got == want
    if field.is_rational:
        for coords in got:
            assert _all_fractions(coords or ())


def test_batched_coordinates_include_unsolvable_targets():
    vecs = [(1, 0, 0), (2, 0, 0), (0, 1, 1)]
    got = coordinates_in_span_many(vecs, [(3, 2, 2), (0, 0, 1), (0, 0, 0)],
                                   QQ)
    assert got == [(3, 0, 2), None, (0, 0, 0)]
    assert coordinates_in_span_many([], [(0, 0), (1, 0)], QQ) == [(), None]


def test_semidirect_names_the_first_unclosed_pair():
    # E11 and E12, E11 and E21 close inside the span; [E12, E21] does not
    L = LieAlgebra(QQ, 2, {}).validate()
    E11 = Matrix(QQ, [[1, 0], [0, 0]])
    E12 = Matrix(QQ, [[0, 1], [0, 0]])
    E21 = Matrix(QQ, [[0, 0], [1, 0]])
    with pytest.raises(StructureError, match=r"\(entries 1, 2\)"):
        semidirect_with_derivations(L, [E11, E12, E21])
    with pytest.raises(StructureError, match=r"\(entries 0, 1\)"):
        semidirect_with_derivations(L, [E12, E21, E11])


def _entrywise_product(field, A, B):
    """(A B)_ij = sum_k A_ik B_kj, one scalar operation at a time: the
    formula `Matrix.__mul__` used before it moved to ints, as the
    oracle."""
    return [[sum((A.entry(i, k) * B.entry(k, j) for k in range(A.ncols)),
                 field.zero) for j in range(B.ncols)]
            for i in range(A.nrows)]


def _entrywise_difference(X, Y):
    return [[x - y for x, y in zip(u, v)] for u, v in zip(X, Y)]


@st.composite
def matrices_over_one_field(draw):
    """A (r x m), B (m x c), v (length m) and square S, T over Q, with
    denominators up to 12 and about half the entries zero, or over
    GF(3) or GF(7)."""
    field = draw(st.sampled_from([QQ, QQ, GF(3), GF(7)]))
    value = rational if field.is_rational else st.integers(0, field.p - 1)

    def matrix(nrows, ncols):
        return Matrix(field, [[draw(value) for _ in range(ncols)]
                              for _ in range(nrows)])

    r, m, c, n = (draw(st.integers(1, 4)) for _ in range(4))
    v = tuple(field.scalar(draw(value)) for _ in range(m))
    return field, matrix(r, m), matrix(m, c), v, matrix(n, n), matrix(n, n)


@settings(max_examples=60, deadline=None)
@given(matrices_over_one_field())
def test_integer_matrix_products_match_the_entrywise_formula(case):
    field, A, B, v, S, T = case
    AB = A * B
    assert AB.rows() == [tuple(row) for row in _entrywise_product(field, A, B)]
    assert A.apply(v) == tuple(
        sum((A.entry(i, k) * v[k] for k in range(A.ncols)), field.zero)
        for i in range(A.nrows))
    ST, TS = _entrywise_product(field, S, T), _entrywise_product(field, T, S)
    assert commutator(S, T).rows() == [
        tuple(row) for row in _entrywise_difference(ST, TS)]
    # a product's integer form carries the product of the two
    # denominators, not their lcm: products of products still agree
    STS = _entrywise_product(field, S * T, S)
    assert ((S * T) * S).rows() == [tuple(row) for row in STS]
    assert commutator(S * T, S).rows() == [tuple(row) for row in
                                           _entrywise_difference(
                                               STS, _entrywise_product(
                                                   field, S, S * T))]
    if field.is_rational:
        for M in (AB, commutator(S, T), (S * T) * S):
            assert _all_fractions(M.flat())
        assert _all_fractions(A.apply(v))


def test_commutator_of_unequal_shapes_raises():
    A = Matrix(QQ, [[1, 2, 3], [4, 5, 6]])
    B = Matrix(QQ, [[1, 0], [0, 1], [1, 1]])
    with pytest.raises(DimensionError):
        commutator(A, B)
    with pytest.raises(DimensionError):
        commutator(A, A)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(["sl2", "r3", "n3", "r3_lambda"]), st.data())
def test_trace_form_killing_matrix_matches_explicit_products(name, data):
    """kappa read off the structure constants equals
    [[trace(ad e_i ad e_j)]] with the products formed entry by entry, in
    a random rational basis of each algebra."""
    lam = data.draw(rational.filter(bool)) if name == "r3_lambda" else None
    T = Matrix(QQ, [[data.draw(rational) for _ in range(3)]
                    for _ in range(3)])
    assume(inverse(T) is not None)
    L = builtin_algebra(name, lam=lam).change_basis(T)
    form, semisimple = killing_is_semisimple(L)
    ads = [L.adjoint_matrix(unit_vector(QQ, 3, i)) for i in range(3)]
    want = [[sum((row[k] for k, row in enumerate(
        _entrywise_product(QQ, ads[i], ads[j]))), Fraction(0))
        for j in range(3)] for i in range(3)]
    assert form.rows() == [tuple(row) for row in want]
    assert _all_fractions(form.flat())
    assert semisimple is (len(_fraction_rref(Matrix(QQ, want))[1]) == 3)
    assert semisimple is (name == "sl2")
