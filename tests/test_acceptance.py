"""The acceptance gate: one numbered test block per release criterion.

Every expected value here is either checked against an in-test oracle
computed with plain loops, against the committed golden files, or frozen
from an independent derivation; nothing asserts a number that was first
produced by the code path under test.  The per-criterion outcome table
is printed by the conftest hook at the end of the run.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

import pytest

from postlie.catalog import (all_entries, builtin_algebra, get_entry,
                             heis_commutative, lambda_product, sl2_family)
from postlie.errors import StructureError
from postlie.fields import GF, QQ
from postlie.lie import (check_lie_axioms, classify_low_dim,
                         derivation_algebra, is_complete_lie, is_derivation,
                         is_nilpotent, is_perfect, is_solvable)
from postlie.linalg import matrix_from_flat, unit_vector
from postlie.search import (BANNER, SearchSpec, decode_matrix,
                            enumerate_products, flat_bracket_tensor,
                            orbit_reduce, pair_from_phi, phi_ansatz_sweep)
from postlie.structures import (all_right_multiplications_nilpotent,
                                associated_bracket, check_structure,
                                derived_identity_audit, embed_semidirect,
                                is_complete_structure, prelie_from_two_step,
                                sampled_left_mult_nilpotency,
                                structure_from_graph_subalgebra,
                                theorem_audit)
from test_lie import span_basis

GOLDEN = Path(__file__).parent / "golden"

AUDIT_ITEMS = ("module-action", "associator-skew", "right-slot-expansion",
               "mixed-rearrangement", "cyclic-left-action",
               "cyclic-product-action")


def test_criterion_01_catalog_reproduced():
    start = time.perf_counter()
    seen = set()
    for entry in all_entries():
        if not (entry.entry_id.startswith("V")
                and entry.entry_id[1:].isdigit()):
            continue
        seen.add(entry.entry_id)
        for sample in entry.samples:
            pair = entry.build_sample(sample)
            report = check_structure(pair.g, pair.n, pair.product)
            assert report.passed
            for item in report.items:
                assert item.witness is None and item.discrepancy is None
            recovered = associated_bracket(pair.product, pair.n)
            for i in range(pair.dim):
                for j in range(pair.dim):
                    assert (recovered.bracket_basis(i, j)
                            == pair.g.bracket_basis(i, j))
    assert seen == {"V%d" % k for k in range(1, 18)}
    assert time.perf_counter() - start < 1.0


def test_criterion_02_identity_audit(catalog_samples):
    assert catalog_samples
    for entry, sample, pair in catalog_samples:
        audit = derived_identity_audit(pair)
        assert tuple(item.name for item in audit.items) == AUDIT_ITEMS
        assert audit.passed, "%s failed %s" % (
            entry.sample_name(sample),
            [item.name for item in audit.failures()])


def test_criterion_03_worked_families():
    for args in ((0, 1, 0), (1, 2, 3), (-1, Fraction(1, 2), 5)):
        assert heis_commutative(*args).validated

    frozen = {
        (2, 1): (Fraction(-2), Fraction(-1, 2)),
        (1, -1): (Fraction(1),),
        (3, 0): (Fraction(0),),
    }
    for (alpha, beta), ratios in frozen.items():
        pair = sl2_family(alpha, beta)
        assert pair.validated
        assert is_solvable(pair.g) and not is_nilpotent(pair.g)
        cls = classify_low_dim(pair.g)
        assert cls.solvable and not cls.nilpotent
        assert cls.ratio_set == ratios
        if beta != 0:
            lam = Fraction(-alpha, beta)
            assert set(ratios) == {lam, 1 / lam if lam else lam}


def test_criterion_04_scalar_products():
    n3 = builtin_algebra("n3")
    for lam in (2, -1, Fraction(1, 3)):
        pair = lambda_product(n3, lam)
        pair.validate()
        factor = 1 - 2 * Fraction(lam)
        for i in range(3):
            for j in range(i + 1, 3):
                expect = tuple(factor * c for c in n3.bracket_basis(i, j))
                assert pair.n.bracket_basis(i, j) == expect

    raw = lambda_product(builtin_algebra("sl2"), 2)
    report = check_structure(raw.g, raw.n, raw.product)
    assert not report.passed
    item = report.item("module-action")
    assert not item.passed
    assert item.witness == (0, 1, 0)
    assert item.discrepancy == (Fraction(-4), Fraction(0), Fraction(0))
    with pytest.raises(StructureError):
        raw.validate()


def test_criterion_05_derivation_algebras():
    sl2 = builtin_algebra("sl2")
    ders = derivation_algebra(sl2)
    assert ders.dim == 3
    ad = [sl2.adjoint_matrix(unit_vector(QQ, 3, i)) for i in range(3)]
    for M in ad:
        assert is_derivation(sl2, M)
        assert ders.contains(M)
    assert (span_basis(QQ, 9, [M.flat() for M in ad])
            == span_basis(QQ, 9, [D.flat() for D in ders.basis]))
    assert is_complete_lie(sl2)

    assert derivation_algebra(builtin_algebra("abelian", dim=2)).dim == 4

    doc = json.loads((GOLDEN / "derivations_n3.json").read_text())
    golden = [matrix_from_flat(QQ, 3, [Fraction(s) for s in row])
              for row in doc["basis"]]
    n3 = builtin_algebra("n3")
    computed = derivation_algebra(n3)
    assert len(golden) == 6 == computed.dim
    assert (span_basis(QQ, 9, [M.flat() for M in golden])
            == span_basis(QQ, 9, [D.flat()
                                  for D in computed.basis]))


def test_criterion_06_semidirect_embeddings(catalog_samples):
    for entry, sample, pair in catalog_samples:
        emb = embed_semidirect(pair)
        assert emb.passed, entry.sample_name(sample)
        assert check_lie_axioms(emb.semidirect).passed


def test_criterion_07_graph_subalgebra_inverts(catalog_samples):
    for entry, sample, pair in catalog_samples:
        elements = [(unit_vector(pair.field, pair.dim, i),
                     pair.product.left_matrix_basis(i))
                    for i in range(pair.dim)]
        back = structure_from_graph_subalgebra(pair.n, elements)
        assert back.g.brackets == pair.g.brackets
        assert back.product == pair.product


def test_criterion_08_prelie_deformation():
    pair = heis_commutative(0, 1, 0)
    prelie, report = prelie_from_two_step(pair)
    assert tuple(item.name for item in report.items) == (
        "commutator-matches-bracket", "left-symmetry")
    assert report.passed

    zero = lambda_product(builtin_algebra("n3"), 0).validate()
    prelie2, report2 = prelie_from_two_step(zero)
    assert report2.passed
    # zero product deforms to exactly one half of the bracket
    assert prelie2.product_basis(0, 1) == (Fraction(0), Fraction(0),
                                           Fraction(1, 2))
    assert prelie2.product_basis(1, 0) == (Fraction(0), Fraction(0),
                                           Fraction(-1, 2))


def test_criterion_09_gf3_enumeration_vs_brute_force():
    start = time.perf_counter()
    p, dim = 3, 2
    F = GF(p)
    g = builtin_algebra("abelian", field=F, dim=dim)
    n = builtin_algebra("abelian", field=F, dim=dim)

    def tensor(idx):
        digits = [0] * 8
        for pos in range(7, -1, -1):
            digits[pos] = idx % p
            idx //= p
        return digits

    def commutative(c):
        return all(c[(i * 2 + j) * 2 + k] == c[(j * 2 + i) * 2 + k]
                   for i in range(2) for j in range(2) for k in range(2))

    def associative(c):
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for r in range(2):
                        lhs = sum(c[(i * 2 + j) * 2 + t] * c[(t * 2 + k) * 2 + r]
                                  for t in range(2))
                        rhs = sum(c[(j * 2 + k) * 2 + t] * c[(i * 2 + t) * 2 + r]
                                  for t in range(2))
                        if (lhs - rhs) % p:
                            return False
        return True

    oracle = [idx for idx in range(p ** 8)
              if commutative(tensor(idx)) and associative(tensor(idx))]
    assert len(oracle) == 105

    full = enumerate_products(SearchSpec(g, n, symmetric=False))
    assert list(full.indices) == oracle

    spec = SearchSpec(g, n, symmetric=True)
    sym = enumerate_products(spec)
    assert len(sym.indices) == 105
    sym_tables = {tuple(flat_bracket_tensor(pr)) for pr in sym.products()}
    assert sym_tables == {tuple(tensor(idx)) for idx in oracle}

    # orbit oracle: union-find under all 48 invertible 2x2 matrices
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    det = (a * d - b * c) % p
                    if det:
                        inv_det = 1 if det == 1 else 2  # inverses mod 3
                        inv = [[(d * inv_det) % p, (-b * inv_det) % p],
                               [(-c * inv_det) % p, (a * inv_det) % p]]
                        mats.append(([[a, b], [c, d]], inv))
    assert len(mats) == 48

    def transform(c, T, Tinv):
        out = [0] * 8
        for i in range(2):
            for j in range(2):
                img = [sum(T[k][i] * T[l][j] * c[(k * 2 + l) * 2 + r]
                           for k in range(2) for l in range(2)) % p
                       for r in range(2)]
                for s in range(2):
                    out[(i * 2 + j) * 2 + s] = sum(
                        Tinv[s][r] * img[r] for r in range(2)) % p
        return tuple(out)

    parent = {tuple(tensor(idx)): tuple(tensor(idx)) for idx in oracle}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for idx in oracle:
        c = tuple(tensor(idx))
        for T, Tinv in mats:
            moved = transform(c, T, Tinv)
            ra, rb = find(c), find(moved)
            if ra != rb:
                parent[ra] = rb
    classes = {}
    for key in parent:
        classes.setdefault(find(key), []).append(key)
    assert len(classes) == 6
    assert sorted(len(v) for v in classes.values()) == [1, 8, 24, 24, 24, 24]

    dec = orbit_reduce(spec, sym.indices)
    assert dec.count == 6
    assert dec.aut_order == 48
    assert sorted(len(o) for o in dec.orbits) == [1, 8, 24, 24, 24, 24]
    assert time.perf_counter() - start < 10.0


def test_criterion_10_phi_sweep_sl2_f5():
    start = time.perf_counter()
    F = GF(5)
    sl2 = builtin_algebra("sl2", field=F)
    result = phi_ansatz_sweep(sl2)
    assert result.total == 5 ** 9
    assert len(result.indices) == 392

    perfect = [idx for idx in result.indices
               if is_perfect(pair_from_phi(sl2, decode_matrix(F, 3, idx)).g)]
    assert perfect == [0, 1565004]
    assert 1565004 == 4 * (5 ** 8 + 5 ** 4 + 1)

    zero_phi = decode_matrix(F, 3, 0)
    assert all(zero_phi.entry(r, c) == 0 for r in range(3) for c in range(3))
    neg_id = decode_matrix(F, 3, 1565004)
    minus_one = F.scalar(-1)
    for r in range(3):
        for c in range(3):
            assert neg_id.entry(r, c) == (minus_one if r == c else F.zero)

    # the finding is field-specific evidence and must be labeled as such
    note = BANNER % 5
    assert "GF(5)" in note and "not a characteristic-zero proof" in note
    assert time.perf_counter() - start < 60.0


def test_criterion_11_completeness_flags():
    expected = {"V1": True, "V5": True, "V2": False, "V6": False,
                "V8": False}
    for entry_id, want in expected.items():
        entry = get_entry(entry_id)
        sample = entry.samples[0] if entry.samples else {}
        pair = entry.build_sample(sample)
        assert is_complete_structure(pair) is want
        assert sampled_left_mult_nilpotency(pair, samples=50, seed=11) is want


def test_criterion_11_v9_zero_completeness():
    # The claim "V9(0) is complete" holds in the right (Segal) sense, all
    # R(x) nilpotent, and fails in the left sense that
    # is_complete_structure decides.  V9(alpha) has e2.e1 = -e1,
    # e2.e2 = alpha e2 and no other nonzero basis products.  Left: L(e2)
    # sends e1 to -e1 for every alpha.  No (r2, abelian) structure is
    # left-complete anyway: L is a representation of r2, so
    # L(e1) = [L(e1), L(e2)]; all L(x) nilpotent would put L(r2) in the
    # commuting strictly upper-triangular matrices (Engel), so L(e1) = 0,
    # and skew-part then forces L(e2) e1 = -e1.  Right: at alpha = 0,
    # R(e1) sends e2 to -e1 and e1 to 0 and R(e2) = 0, so R(x)^2 = 0 for
    # every x; for alpha != 0, R(e2) e2 = alpha e2.  The transposed table
    # e1.e2 = -e1 fails module-action, so it is no reading of the claim.
    for alpha in (0, 1, 2):
        pair = get_entry("V9").build_sample({"alpha": alpha})
        dim, mul = pair.dim, pair.product.product
        basis = [unit_vector(pair.field, dim, i) for i in range(dim)]
        zero = tuple(0 * c for c in basis[0])

        def power(op, v):
            for _ in range(dim):
                v = op(v)
            return v

        def right(j):
            return lambda v: mul(v, basis[j])

        def rr(i, j, v):
            return right(i)(right(j)(v))

        # left oracle: L(e2)^dim e1 = (-1)^dim e1 != 0
        left_power = power(lambda v: mul(basis[1], v), basis[0])
        assert left_power == tuple((-1) ** dim * c for c in basis[0])
        assert left_power != zero
        assert is_complete_structure(pair) is False

        # right oracle: R(e1)^2, R(e2)^2 and R(e1)R(e2) + R(e2)R(e1) all
        # vanish, so R(x)^2 = 0 for every x; otherwise some R(ej)^dim ei
        # is nonzero and R(ej) is not nilpotent
        squares_vanish = all(
            rr(0, 0, v) == zero and rr(1, 1, v) == zero
            and tuple(a + b for a, b in zip(rr(0, 1, v), rr(1, 0, v))) == zero
            for v in basis)
        not_nilpotent = any(power(right(j), v) != zero
                            for j in range(dim) for v in basis)
        assert squares_vanish is not not_nilpotent
        assert squares_vanish is (alpha == 0)
        assert all_right_multiplications_nilpotent(pair) is squares_vanish


def test_criterion_12_theorem_audit(catalog_samples):
    for entry, sample, pair in catalog_samples:
        audit = theorem_audit(pair)
        assert not audit.advisory
        assert audit.consistent, entry.sample_name(sample)
