"""Bracket tables, structure theory, derivations, classification."""

import json
import math
import random
import runpy
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from postlie.catalog import BUILTIN_NAMES, builtin_algebra
from postlie.errors import (DimensionError, FieldMismatchError,
                            NotValidatedError, ParameterError,
                            StructureError, UnsupportedFieldError)
from postlie.fields import GF, QQ
from postlie.lie import (LieAlgebra, Subspace, center, check_lie_axioms,
                         classify_low_dim, derivation_algebra, direct_sum,
                         image_chain, is_complete_lie, is_derivation,
                         is_nilpotent, is_perfect, is_solvable,
                         killing_is_semisimple, nilpotency_class,
                         semidirect_with_derivations, series)
from postlie.linalg import (Matrix, as_vector, from_ints, inverse,
                            kernel_rows, matrix_from_flat, nullspace, rank,
                            rref, support_terms, unit_vector, vadd, vneg,
                            vscale, vzero)

GOLDEN = Path(__file__).parent / "golden"
TOOLS = Path(__file__).parent.parent / "tools"


def span_basis(field, ambient, vectors):
    """Canonical (RREF row) basis of the span of `vectors` in
    field^ambient, by `rref` on field scalars: the oracle that subspaces,
    series and derivation spans are checked against here and in
    `test_linalg` and `test_acceptance`."""
    R, pivots = rref(Matrix(field, [as_vector(field, ambient, v)
                                    for v in vectors]))
    return tuple(R.row(i) for i in range(len(pivots)))


def annihilator_rows(span):
    """Rows spanning the solutions of <row, b> = 0 for every basis vector
    b of the Subspace `span`."""
    vectors, l = kernel_rows(span.field.p, list(span.rows), span.ambient)
    return tuple(tuple(from_ints(span.field, v, l)) for v in vectors)


def test_builtins_validate():
    for name, dim in [("r2", 2), ("n3", 3), ("r3", 3), ("sl2", 3)]:
        L = builtin_algebra(name)
        assert L.dim == dim and L.validated
    assert builtin_algebra("abelian", dim=4).is_abelian()
    assert builtin_algebra("r3_lambda", lam=Fraction(1, 2)).dim == 3


def test_builtin_parameter_errors():
    with pytest.raises(ParameterError):
        builtin_algebra("abelian")
    with pytest.raises(ParameterError):
        builtin_algebra("r3_lambda")
    with pytest.raises(ParameterError):
        builtin_algebra("su2")


def test_bracket_bilinearity_and_antisymmetry():
    sl2 = builtin_algebra("sl2")
    rng = random.Random(7)
    for _ in range(25):
        x = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(3))
        y = tuple(Fraction(rng.randrange(-4, 5)) for _ in range(3))
        assert sl2.bracket(x, y) == tuple(-a for a in sl2.bracket(y, x))
        two_x = tuple(2 * a for a in x)
        assert sl2.bracket(two_x, y) == tuple(2 * a for a in sl2.bracket(x, y))


def test_jacobi_failure_witness():
    # [e1,e2] = e3 and [e1,e3] = e1 break Jacobi at the only triple
    bad = LieAlgebra(QQ, 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    report = check_lie_axioms(bad)
    assert not report.passed
    item = report.item("jacobi")
    assert item.witness == (0, 1, 2)
    assert item.discrepancy == (0, 0, -1)
    with pytest.raises(StructureError):
        bad.validate()


def test_validation_is_required_downstream():
    L = LieAlgebra(QQ, 2, {(0, 1): {0: 1}})
    with pytest.raises(NotValidatedError):
        center(L)


def test_center_and_series():
    n3 = builtin_algebra("n3")
    assert center(n3).dim == 1
    assert center(n3).contains(unit_vector(QQ, 3, 2))
    lower = series(n3, "lower-central")
    assert [s.dim for s in lower] == [3, 1, 0]
    assert nilpotency_class(n3) == 2

    sl2 = builtin_algebra("sl2")
    assert center(sl2).dim == 0
    assert [s.dim for s in series(sl2, "derived")] == [3]
    assert nilpotency_class(sl2) is None
    with pytest.raises(ValueError):
        series(sl2, "upper")


def test_solvable_nilpotent_perfect_flags():
    flags = {
        "n3": (True, True, False),
        "r2": (True, False, False),
        "r3": (True, False, False),
        "sl2": (False, False, True),
    }
    for name, (solv, nilp, perf) in flags.items():
        L = builtin_algebra(name)
        assert is_solvable(L) is solv
        assert is_nilpotent(L) is nilp
        assert is_perfect(L) is perf


def test_killing_form():
    killing, semisimple = killing_is_semisimple(builtin_algebra("sl2"))
    assert semisimple and rank(killing) == 3
    # the form is symmetric and invariant under transposing the arguments
    assert killing == killing.transpose()
    _, flat = killing_is_semisimple(builtin_algebra("r2"))
    assert not flat


def test_derivation_predicate():
    sl2 = builtin_algebra("sl2")
    for i in range(3):
        assert is_derivation(sl2, sl2.adjoint_matrix(unit_vector(QQ, 3, i)))
    assert not is_derivation(sl2, Matrix.identity(QQ, 3))


def test_derivation_predicate_refuses_another_field():
    # the test runs on raw ints, so the fields are compared first
    with pytest.raises(FieldMismatchError):
        is_derivation(builtin_algebra("sl2"), Matrix.identity(GF(5), 3))


def test_derivation_dimensions():
    assert derivation_algebra(builtin_algebra("sl2")).dim == 3
    assert derivation_algebra(builtin_algebra("abelian", dim=2)).dim == 4
    assert derivation_algebra(builtin_algebra("n3")).dim == 6


def test_derivations_of_n3_match_golden_solve():
    """The committed basis comes from a standalone row reduction of the
    derivation equations (tools/gen_golden_derivations.py)."""
    doc = json.loads((GOLDEN / "derivations_n3.json").read_text())
    assert doc["algebra"] == "n3"
    golden = [matrix_from_flat(QQ, 3, [Fraction(s) for s in row])
              for row in doc["basis"]]
    n3 = builtin_algebra("n3")
    ders = derivation_algebra(n3)
    assert len(golden) == 6 == ders.dim
    for M in golden:
        assert is_derivation(n3, M)
        assert ders.contains(M)
    # equal spans, both directions
    golden_span = span_basis(QQ, 9, [M.flat() for M in golden])
    assert len(golden_span) == 6
    computed_span = span_basis(QQ, 9, [M.flat() for M in ders.basis])
    assert golden_span == computed_span


def test_golden_derivations_regenerate_byte_for_byte(capsys):
    """The standalone generator, run in process, still writes the
    committed file."""
    runpy.run_path(str(TOOLS / "gen_golden_derivations.py"),
                   run_name="__main__")
    assert capsys.readouterr().out == \
        (GOLDEN / "derivations_n3.json").read_text()


def _hand_indexed_rows(L):
    """The derivation equations written out entry by entry, in the
    unknowns d[r][c] flattened row major: for each basis pair i < j and
    output component k, with c(a,b) = [e_a, e_b],
      sum_l c(i,j)_l d[k][l]
        - sum_r c(r,j)_k d[r][i] - sum_r c(i,r)_k d[r][j] = 0."""
    n = L.dim
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            c_ij = L.bracket_basis(i, j)
            for k in range(n):
                row = [L.field.zero] * (n * n)
                for l in range(n):
                    row[k * n + l] += c_ij[l]
                for r in range(n):
                    row[r * n + i] -= L.bracket_basis(r, j)[k]
                    row[r * n + j] -= L.bracket_basis(i, r)[k]
                rows.append(tuple(row))
    return rows


def _dense_is_derivation(L, D):
    """D[x,y] = [Dx,y] + [x,Dy] on every ordered basis pair, on field
    scalars."""
    e = [unit_vector(L.field, L.dim, i) for i in range(L.dim)]
    return all(D.apply(L.bracket(x, y)) ==
               vadd(L.bracket(D.apply(x), y), L.bracket(x, D.apply(y)))
               for x in e for y in e)


def _entries(field):
    if field.is_rational:
        return st.fractions(min_value=-2, max_value=2, max_denominator=3)
    return st.integers(0, field.p - 1).map(field.scalar)


@st.composite
def builtins_in_a_random_basis(draw):
    """Every builtin over Q, GF(5) or GF(7), written in a random basis."""
    field = draw(st.sampled_from([QQ, GF(5), GF(7)]))
    name = draw(st.sampled_from(BUILTIN_NAMES))
    dim = draw(st.integers(1, 4)) if name == "abelian" else None
    lam = draw(_entries(field)) if name == "r3_lambda" else None
    L = builtin_algebra(name, field=field, dim=dim, lam=lam)
    T = Matrix(field, [[draw(_entries(field)) for _ in range(L.dim)]
                       for _ in range(L.dim)])
    assume(inverse(T) is not None)
    return L.change_basis(T)


@settings(max_examples=60, deadline=None)
@given(builtins_in_a_random_basis(), st.data())
def test_derivations_match_the_dense_formula_and_the_hand_indexed_rows(
        L, data):
    """derivation_algebra's basis is the nullspace of the hand-indexed
    equations, entry for entry and in order, and is_derivation agrees
    with the dense formula on derivations and on random matrices."""
    F, n = L.field, L.dim
    rows = _hand_indexed_rows(L)
    want = (nullspace(Matrix(F, rows)) if rows else
            tuple(unit_vector(F, n * n, t) for t in range(n * n)))
    ders = derivation_algebra(L)
    assert tuple(D.flat() for D in ders.basis) == want
    D = Matrix.zeros(F, n, n)
    for M in ders.basis:
        D = D + M.scale(data.draw(_entries(F)))
    assert is_derivation(L, D) and _dense_is_derivation(L, D)
    M = Matrix(F, [[data.draw(_entries(F)) for _ in range(n)]
                   for _ in range(n)])
    assert is_derivation(L, M) is _dense_is_derivation(L, M)


def test_derivations_of_n3_entry_relations():
    # every derivation fixes the center direction up to the trace relation:
    # rows/cols (0-based) obey d[0][2] = d[1][2] = 0, d[2][2] = d[0][0] + d[1][1]
    for D in derivation_algebra(builtin_algebra("n3")).basis:
        assert D.entry(0, 2) == 0 and D.entry(1, 2) == 0
        assert D.entry(2, 2) == D.entry(0, 0) + D.entry(1, 1)


def test_derivations_of_sl2_are_inner():
    sl2 = builtin_algebra("sl2")
    ders = derivation_algebra(sl2)
    ad = [sl2.adjoint_matrix(unit_vector(QQ, 3, i)) for i in range(3)]
    assert all(ders.contains(M) for M in ad)
    assert span_basis(QQ, 9, [M.flat() for M in ad]) == \
        span_basis(QQ, 9, [M.flat() for M in ders.basis])
    assert ders.coordinates(ad[0]) is not None


def test_complete_lie():
    assert is_complete_lie(builtin_algebra("sl2"))
    assert not is_complete_lie(builtin_algebra("n3"))  # center is e3
    assert not is_complete_lie(builtin_algebra("abelian", dim=2))
    assert is_complete_lie(builtin_algebra("r2"))


def test_semidirect_with_derivations():
    n3 = builtin_algebra("n3")
    ders = derivation_algebra(n3)
    amb = semidirect_with_derivations(n3, ders.basis)
    assert amb.dim == 9 and amb.validated
    assert check_lie_axioms(amb).passed
    # the L block keeps its bracket
    assert amb.bracket_basis(0, 1)[:3] == n3.bracket_basis(0, 1)
    # [e_i, D] acts as -D(e_i) in the L block
    D0 = ders.basis[0]
    got = amb.bracket_basis(0, 3)
    assert got[:3] == tuple(-a for a in D0.apply(unit_vector(QQ, 3, 0)))
    assert all(a == 0 for a in got[3:])


def test_semidirect_rejects_bad_derivation_lists():
    n3 = builtin_algebra("n3")
    D = derivation_algebra(n3).basis[0]
    with pytest.raises(StructureError):
        semidirect_with_derivations(n3, [Matrix.identity(QQ, 3)])
    with pytest.raises(StructureError):
        semidirect_with_derivations(n3, [D, D])
    with pytest.raises(StructureError, match="linearly dependent"):
        semidirect_with_derivations(n3, [D, D.scale(2)])


def test_semidirect_checks_only_what_the_solver_did_not(monkeypatch):
    """The DerivationAlgebra of L itself is taken as checked: no second
    is_derivation pass, no rank check of its nullspace basis, no Jacobi
    scan of the sum, which comes back validated, and the same algebra as
    from its plain basis.  Any other list, and the derivations of another
    algebra, are checked, and the sum is scanned."""
    import postlie.lie as lie
    n3 = builtin_algebra("n3")
    ders = derivation_algebra(n3)
    calls, ranks, scans = [], [], []
    original, original_rank = lie.is_derivation, lie.rank
    original_scan = lie.check_lie_axioms
    monkeypatch.setattr(lie, "is_derivation",
                        lambda L, D: calls.append(D) or original(L, D))
    monkeypatch.setattr(lie, "rank",
                        lambda M: ranks.append(M) or original_rank(M))
    monkeypatch.setattr(lie, "check_lie_axioms",
                        lambda L: scans.append(L) or original_scan(L))
    amb = semidirect_with_derivations(n3, ders)
    assert calls == [] and ranks == [] and scans == []
    assert amb.validated and amb.dim == 3 + ders.dim
    assert amb == semidirect_with_derivations(n3, ders.basis)
    assert calls == list(ders.basis) and len(ranks) == 1
    assert len(scans) == 1 and scans[0] == amb
    # gl(3) is Der of abelian(3); handed to n3 it is checked and refused
    with pytest.raises(StructureError, match="not a derivation"):
        semidirect_with_derivations(
            n3, derivation_algebra(builtin_algebra("abelian", dim=3)))


def test_direct_sum():
    both = direct_sum(builtin_algebra("r2"), builtin_algebra("n3"))
    assert both.dim == 5
    assert both.bracket_basis(0, 1) == (1, 0, 0, 0, 0)
    assert both.bracket_basis(2, 3) == (0, 0, 0, 0, 1)
    assert both.bracket_basis(1, 2) == (0, 0, 0, 0, 0)
    with pytest.raises(FieldMismatchError):
        direct_sum(builtin_algebra("r2"),
                   builtin_algebra("r2", field=GF(5)))


def test_classification_of_builtins():
    cases = {
        "n3": ("n3", True, True),
        "r2": ("r2", True, False),
        "r3": ("r3", True, False),
        "sl2": ("sl2", False, False),
    }
    for name, (expected, solv, nilp) in cases.items():
        cls = classify_low_dim(builtin_algebra(name))
        assert cls.name == expected
        assert cls.solvable is solv and cls.nilpotent is nilp
    abelian = classify_low_dim(builtin_algebra("abelian", dim=3))
    assert abelian.name == "abelian" and abelian.center_dim == 3
    # the flags come from one pass over each series, and agree with the
    # public tests that walk the series again
    for L in (builtin_algebra("n3"), builtin_algebra("r2"),
              builtin_algebra("sl2"), builtin_algebra("abelian", dim=2),
              builtin_algebra("r3_lambda", lam=0)):
        cls = classify_low_dim(L)
        assert (cls.solvable, cls.nilpotent, cls.nilpotency_class) == (
            is_solvable(L), is_nilpotent(L), nilpotency_class(L))
    assert classify_low_dim(builtin_algebra("n3")).nilpotency_class == 2
    assert classify_low_dim(builtin_algebra("abelian", dim=2)) \
        .nilpotency_class == 1


def test_classification_ratio_sets():
    two = classify_low_dim(builtin_algebra("r3_lambda", lam=2))
    assert two.name == "r3_lambda"
    assert two.ratio_set == (Fraction(1, 2), Fraction(2))
    assert two.ratio_invariant == Fraction(9, 2)

    # lam and 1/lam give the same isomorphism invariants
    half = classify_low_dim(builtin_algebra("r3_lambda", lam=Fraction(1, 2)))
    assert half.ratio_set == two.ratio_set
    assert half.ratio_invariant == two.ratio_invariant


def test_classification_separates_r3_from_scalar_action():
    jordan = classify_low_dim(builtin_algebra("r3"))
    scalar = classify_low_dim(builtin_algebra("r3_lambda", lam=1))
    assert jordan.ratio_set == scalar.ratio_set == (1,)
    assert jordan.action_semisimple is False
    assert scalar.action_semisimple is True
    assert jordan.name == "r3" and scalar.name == "r3_lambda"


def test_classification_degenerate_ratio():
    # r2 + abelian(1): one-dimensional derived algebra
    L = LieAlgebra(QQ, 3, {(0, 1): {1: 1}}).validate()
    cls = classify_low_dim(L)
    assert cls.name == "r3_lambda" and cls.ratio_set == (0,)
    assert cls.derived_dim == 1


def test_classification_complex_ratio_has_no_name():
    # e1 acts on the derived plane by a rotation-and-scale matrix whose
    # eigenvalue ratio is complex: trace 2, det 2
    L = LieAlgebra(QQ, 3, {(0, 1): {1: 1, 2: -1},
                           (0, 2): {1: 1, 2: 1}}).validate()
    cls = classify_low_dim(L)
    assert cls.name is None
    assert cls.ratio_set is None
    assert cls.ratio_invariant == 2
    assert cls.action_semisimple is True
    assert cls.fingerprint()[0] == 3


def test_classification_guards():
    with pytest.raises(UnsupportedFieldError):
        classify_low_dim(builtin_algebra("sl2", field=GF(5)))
    with pytest.raises(DimensionError):
        classify_low_dim(builtin_algebra("abelian", dim=4))


def _word_spans(field, dim, ops):
    """The spans of the images of all words of length t = 0, 1, ... in
    the operators `ops`, listed as a chain is: up to the first repeat,
    with a zero span included.  Words are multiplied out as matrices, one
    per distinct product."""
    words = {tuple(Matrix.identity(field, dim).flat())}
    spans = [span_basis(field, dim, [unit_vector(field, dim, i)
                                     for i in range(dim)])]
    while spans[-1]:
        words = {tuple((M * matrix_from_flat(field, dim, w)).flat())
                 for M in ops for w in words}
        cols = [matrix_from_flat(field, dim, w).col(j)
                for w in words for j in range(dim)]
        nxt = span_basis(field, dim, cols)
        if len(nxt) == len(spans[-1]):
            break
        spans.append(nxt)
    return spans


@st.composite
def sparse_bilinear_tables(draw):
    """A field, a dimension 1-4 and a sparse table {(i, j): B(e_i, e_j)}.
    Half of the tables put B(e_i, e_j) in the span of e_0, ..., e_{j-1},
    so that every B(e_i, .) is strictly triangular and the chains reach
    zero."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5)]))
    dim = draw(st.integers(1, 4))
    triangular = draw(st.booleans())
    table = {}
    for i in range(dim):
        for j in range(dim):
            if draw(st.integers(0, 2)):
                continue
            top = j if triangular else dim
            vec = [draw(_entries(field)) if k < top else field.zero
                   for k in range(dim)]
            if any(vec):
                table[(i, j)] = vec
    return field, dim, table


@settings(max_examples=150, deadline=None)
@given(sparse_bilinear_tables())
def test_image_chain_spans_the_words_of_the_operators(case):
    """On the slots, W_t is the span of all words of length t in the
    operators B(e_i, .); on the transposed slots, in the B(., e_j)."""
    field, dim, table = case
    terms = support_terms(field, table)
    zero = vzero(field, dim)

    def operator(i, left):
        return Matrix.from_cols(field, [
            table.get((i, j) if left else (j, i), zero) for j in range(dim)])

    transposed = {(j, i): vec for (i, j), vec in terms.items()}
    for slots, left in ((terms, True), (transposed, False)):
        chain = image_chain(field, dim, slots)
        ops = [operator(i, left) for i in range(dim)]
        assert [W.basis for W in chain] == _word_spans(field, dim, ops)
    assert [W.dim for W in image_chain(field, 0, {})] == [0]


def _series_by_brackets(L, kind):
    """The series through `L.bracket` on field scalars, bracket by
    bracket: [W_t, W_t] for the derived series, [L, W_t] for the lower
    central one."""
    whole = Subspace.span(L.field, L.dim, [unit_vector(L.field, L.dim, i)
                                           for i in range(L.dim)])
    chain = [whole]
    while chain[-1].dim:
        current = chain[-1].basis
        left = current if kind == "derived" else whole.basis
        nxt = Subspace.span(L.field, L.dim,
                            [L.bracket(u, v) for u in left for v in current])
        if nxt.dim == chain[-1].dim:
            break
        chain.append(nxt)
    return tuple(chain)


@settings(max_examples=60, deadline=None)
@given(builtins_in_a_random_basis())
def test_series_match_the_bracket_recomputation(L):
    for kind in ("derived", "lower-central"):
        assert series(L, kind) == _series_by_brackets(L, kind)
    brackets = Subspace.span(L.field, L.dim, list(L.brackets.values()))
    assert is_perfect(L) is (brackets.dim == L.dim)


@st.composite
def vector_lists(draw):
    """A field, an ambient dimension 0-5 and a list of 0-6 vectors: random
    (over Q with non-integral entries), all zero, or random vectors
    followed by combinations of them."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]))
    ambient = draw(st.integers(0, 5))
    entries = (st.fractions(min_value=-5, max_value=5, max_denominator=7)
               if field.is_rational else _entries(field))
    kind = draw(st.sampled_from(["random", "zero", "dependent"]))
    count = draw(st.integers(0, 6))
    if kind == "zero":
        return field, ambient, [vzero(field, ambient)] * count
    vectors = [tuple(draw(entries) for _ in range(ambient))
               for _ in range(count)]
    if kind == "dependent" and vectors:
        for _ in range(draw(st.integers(1, 3))):
            coeffs = [draw(entries) for _ in vectors]
            vectors.append(tuple(sum((c * v[k] for c, v in
                                      zip(coeffs, vectors)), field.zero)
                                 for k in range(ambient)))
    return field, ambient, vectors


@settings(max_examples=300, deadline=None)
@given(vector_lists(), st.randoms(use_true_random=False))
def test_subspace_rows_match_span_basis(case, rng):
    """The integer rows of a Subspace give span_basis's dimension, basis
    and pivots; they are canonical (residues with pivot 1 over GF(p),
    content-free with a positive pivot over Q), so any spanning list of
    the same space gives an equal Subspace."""
    field, ambient, vectors = case
    W = Subspace.span(field, ambient, vectors)
    want = span_basis(field, ambient, vectors)
    assert W.dim == len(want) == len(W.rows)
    assert W.basis == want
    assert W.pivots == tuple(next(k for k, v in enumerate(row) if v)
                             for row in want)
    kind = Fraction if field.is_rational else type(field.one)
    assert all(type(v) is kind for row in W.basis for v in row)
    for row, c in zip(W.rows, W.pivots):
        assert all(type(v) is int for v in row)
        if field.p is None:
            assert row[c] > 0 and math.gcd(*row) == 1
        else:
            assert row[c] == 1 and all(0 <= v < field.p for v in row)
    scales = ([Fraction(-2, 3), -1, 1, 2] if field.is_rational
              else range(1, field.p))
    shuffled = [vscale(field.scalar(rng.choice(scales)), vec)
                for vec in want]
    rng.shuffle(shuffled)
    assert Subspace.span(field, ambient, shuffled) == W


def _dense_image(field, dim, table, x, y):
    """B(x, y) = sum of x_i y_j B(e_i, e_j) on field scalars."""
    out = vzero(field, dim)
    for (i, j), vec in table.items():
        out = vadd(out, tuple(x[i] * y[j] * v for v in vec))
    return out


def _reference_chain(field, dim, table, inner):
    """The chain of image_chain through span_basis on field scalars, with
    B(x, w) for every ordered pair, both orders and x = w included."""
    units = [unit_vector(field, dim, i) for i in range(dim)]
    spans = [span_basis(field, dim, units)]
    while spans[-1]:
        left = spans[-1] if inner else units
        nxt = span_basis(field, dim, [_dense_image(field, dim, table, x, w)
                                      for x in left for w in spans[-1]])
        if len(nxt) == len(spans[-1]):
            break
        spans.append(nxt)
    return spans


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(2), GF(3), GF(5)]), st.integers(1, 4),
       st.data())
def test_inner_image_chain_matches_a_span_basis_reference(field, dim, data):
    """The inner chain takes the pairs u < w only; on random antisymmetric
    tables it is the chain over every ordered pair.  Half of the tables
    put [e_i, e_j], i < j, in the span of e_0, ..., e_{i-1}, so that the
    chain falls in several steps.  (The plain chain has its span_basis
    reference in the words test above.)"""
    triangular = data.draw(st.booleans())
    skew = {}
    for i in range(dim):
        for j in range(i + 1, dim):
            top = i if triangular else dim
            vec = tuple(data.draw(_entries(field)) if k < top
                        else field.zero for k in range(dim))
            skew[(i, j)], skew[(j, i)] = vec, vneg(vec)
    chain = image_chain(field, dim, support_terms(field, skew), inner=True)
    assert [W.basis for W in chain] == _reference_chain(field, dim, skew,
                                                        True)


@settings(max_examples=60, deadline=None)
@given(builtins_in_a_random_basis())
def test_series_and_center_match_a_span_basis_reference(L):
    """series against the reference chain on the bracket table, and the
    centre: canonical, central, and of dimension n - rank(x -> ad x)."""
    n, field = L.dim, L.field
    table = {}
    for i in range(n):
        for j in range(n):
            table[(i, j)] = L.bracket_basis(i, j)
    for kind, inner in (("derived", True), ("lower-central", False)):
        assert ([W.basis for W in series(L, kind)]
                == _reference_chain(field, n, table, inner))
    _assert_center_matches_a_span_basis_reference(L)


def _assert_center_matches_a_span_basis_reference(L):
    n, field = L.dim, L.field
    Z = center(L)
    assert Z.basis == span_basis(field, n, Z.basis)
    units = [unit_vector(field, n, j) for j in range(n)]
    assert all(not any(L.bracket(z, e)) for z in Z.basis for e in units)
    ads = [sum((L.bracket_basis(i, j) for j in range(n)), ())
           for i in range(n)]
    assert Z.dim == n - len(span_basis(field, n * n, ads))


@pytest.mark.parametrize("field", [QQ, GF(3), GF(5)])
def test_center_in_random_bases_of_algebras_with_a_centre(field):
    """Centres that are no coordinate subspace: n3, r2 + abelian(1) and
    n3 + abelian(1) in seeded random bases."""
    rng = random.Random(7)
    algebras = [builtin_algebra("n3", field=field),
                direct_sum(builtin_algebra("r2", field=field),
                           builtin_algebra("abelian", field=field, dim=1)),
                direct_sum(builtin_algebra("n3", field=field),
                           builtin_algebra("abelian", field=field, dim=1))]
    for L in algebras:
        for _ in range(5):
            T = Matrix(field, [[rng.randrange(-3, 4) for _ in range(L.dim)]
                               for _ in range(L.dim)])
            if inverse(T) is not None:
                _assert_center_matches_a_span_basis_reference(
                    L.change_basis(T))


def test_subspace_membership():
    span = Subspace.span(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    assert span.dim == 2
    assert span.contains((2, 2, -1))
    assert not span.contains((1, 0, 0))
    assert span.coordinates((2, 2, 3)) is not None
    assert span.coordinates((1, 0, 0)) is None
    rows = annihilator_rows(span)
    assert len(rows) == 1
    for b in span.basis:
        assert sum(r * x for r, x in zip(rows[0], b)) == 0


def test_change_basis_preserves_isomorphism_class():
    sl2 = builtin_algebra("sl2")
    T = Matrix(QQ, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    moved = sl2.change_basis(T).validate()
    assert classify_low_dim(moved).name == "sl2"
    with pytest.raises(DimensionError):
        sl2.change_basis(Matrix.zeros(QQ, 3, 3))


@pytest.mark.parametrize("field", [QQ, GF(2), GF(5)])
def test_change_basis_matches_the_slot_formula(field):
    """Random tables, Lie or not: the i < j slots are T^-1 [T e_i, T e_j]
    computed in the field's scalar classes, and the validated flag is
    carried over, not recomputed."""
    rng = random.Random(5)
    for dim in (1, 2, 3):
        for _ in range(10):
            table = {(i, j): [rng.randrange(-2, 3) for _ in range(dim)]
                     for i in range(dim) for j in range(i + 1, dim)}
            L = LieAlgebra(field, dim, table)
            T = Matrix(field, [[rng.randrange(-2, 3) for _ in range(dim)]
                               for _ in range(dim)])
            Tinv = inverse(T)
            if Tinv is None:
                with pytest.raises(DimensionError):
                    L.change_basis(T)
                continue
            expected = {(i, j): Tinv.apply(L.bracket(T.col(i), T.col(j)))
                        for i in range(dim) for j in range(i + 1, dim)}
            moved = L.change_basis(T)
            assert moved == LieAlgebra(field, dim, expected)
            assert not moved.validated
    n3 = builtin_algebra("n3", field=field)
    moved = n3.change_basis(Matrix.identity(field, 3))
    assert moved == n3 and moved.validated and moved.name == n3.name
    # the abelian table stays empty, but only after T is checked
    abelian = LieAlgebra(field, 2, {}).validate()
    with pytest.raises(DimensionError):
        abelian.change_basis(Matrix.zeros(field, 2, 2))
    with pytest.raises(DimensionError):
        abelian.change_basis(Matrix.identity(field, 3))
    with pytest.raises(FieldMismatchError):
        abelian.change_basis(Matrix.identity(GF(7), 2))
    moved = abelian.change_basis(Matrix(field, [[1, 1], [0, 1]]))
    assert moved == abelian and moved.raw == {} and moved.validated


def test_invariants_are_computed_once_per_algebra(monkeypatch):
    import postlie.lie as lie
    spans = []
    original = lie.echelon
    monkeypatch.setattr(lie, "echelon",
                        lambda *args: spans.append(1) or original(*args))
    L = builtin_algebra("r3")
    first = classify_low_dim(L)
    computed = len(spans)
    assert computed > 0
    assert classify_low_dim(L) is first
    assert series(L, "derived") is series(L, "derived")
    assert nilpotency_class(L) is None and not is_nilpotent(L)
    assert is_solvable(L)
    assert len(spans) == computed
    # a basis change is a new table: its invariants are computed afresh
    T = Matrix(QQ, [[1, 1, 0], [0, 1, 0], [2, 0, 1]])
    moved = L.change_basis(T)
    assert classify_low_dim(moved) == first and len(spans) > computed
    # nothing is kept for an algebra that has not been validated
    raw = LieAlgebra(QQ, 2, {(0, 1): {0: 1}})
    for _ in range(2):
        with pytest.raises(NotValidatedError):
            series(raw)
    assert series(raw.validate(), "lower-central")[-1].dim == 1
