"""Bracket tables, structure theory, derivations, classification."""

import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from postlie.catalog import builtin_algebra
from postlie.errors import (DimensionError, FieldMismatchError,
                            NotValidatedError, ParameterError,
                            StructureError, UnsupportedFieldError)
from postlie.fields import GF, QQ
from postlie.lie import (LieAlgebra, Subspace, center, check_lie_axioms,
                         classify_low_dim, derivation_algebra, direct_sum,
                         is_complete_lie, is_derivation, is_nilpotent,
                         is_perfect, is_solvable,
                         killing_is_semisimple, nilpotency_class,
                         semidirect_with_derivations, series)
from postlie.linalg import (Matrix, flatten_matrix, inverse,
                            matrix_from_flat, rank, span_basis, unit_vector)

GOLDEN = Path(__file__).parent / "golden"


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
    golden_span = span_basis(QQ, 9, [flatten_matrix(M) for M in golden])
    assert len(golden_span) == 6
    computed_span = span_basis(QQ, 9, [flatten_matrix(M) for M in ders.basis])
    assert golden_span == computed_span


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
    assert span_basis(QQ, 9, [flatten_matrix(M) for M in ad]) == \
        span_basis(QQ, 9, [flatten_matrix(M) for M in ders.basis])
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


def test_semidirect_checks_only_what_the_solver_did_not(monkeypatch):
    """The DerivationAlgebra of L itself is taken as checked: no second
    is_derivation pass, and the same algebra as from its plain basis.
    Any other list, and the derivations of another algebra, are
    checked."""
    import postlie.lie as lie
    n3 = builtin_algebra("n3")
    ders = derivation_algebra(n3)
    calls = []
    original = lie.is_derivation
    monkeypatch.setattr(lie, "is_derivation",
                        lambda L, D: calls.append(D) or original(L, D))
    amb = semidirect_with_derivations(n3, ders)
    assert calls == []
    assert amb == semidirect_with_derivations(n3, ders.basis)
    assert calls == list(ders.basis)
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


def test_subspace_membership():
    span = Subspace.span(QQ, 3, [(1, 1, 0), (0, 0, 1)])
    assert span.dim == 2
    assert span.contains((2, 2, -1))
    assert not span.contains((1, 0, 0))
    assert span.coordinates((2, 2, 3)) is not None
    assert span.coordinates((1, 0, 0)) is None
    rows = span.annihilator_rows()
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


def test_invariants_are_computed_once_per_algebra(monkeypatch):
    import postlie.lie as lie
    spans = []
    original = lie.span_basis
    monkeypatch.setattr(lie, "span_basis",
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
