"""Structure checks, completeness, special shapes, embeddings."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie.catalog import (all_entries, builtin_algebra, get_entry,
                             heis_commutative, lambda_product, sl2_family)
from postlie.errors import (DimensionError, FieldMismatchError,
                            StructureError, UnsupportedFieldError)
from postlie.fields import GF, QQ
from postlie.lie import check_lie_axioms, is_nilpotent, is_perfect
from postlie.linalg import (Matrix, inverse, is_zero_vec, unit_vector, vadd,
                            vscale)
from postlie.search import SearchSpec, enumerate_products
from postlie.structures import (TAG_COMMUTATIVE, TAG_CYCLIC, TAG_LR_IDENTITY,
                                TAG_LR_PAIR, TAG_LSA, TAG_NOVIKOV,
                                TAG_PRE_LIE, TAG_SCALAR, TAG_ZERO,
                                BilinearProduct, PostLiePair, _scalar_ratio,
                                all_right_multiplications_nilpotent,
                                associated_bracket, check_algebra,
                                check_structure, derived_identity_audit,
                                embed_semidirect, endomorphism_from_structure,
                                is_complete_structure, left_mult_matrix,
                                left_multiplications, pair_from_phi,
                                prelie_from_two_step,
                                sampled_left_mult_nilpotency,
                                special_case_detect, split_semisimple,
                                structure_from_graph_subalgebra,
                                theorem_audit)

AUDIT_ITEMS = ("module-action", "associator-skew", "right-slot-expansion",
               "mixed-rearrangement", "cyclic-left-action",
               "cyclic-product-action")


def _abelian_pair(product_table):
    g = builtin_algebra("abelian", dim=2)
    n = builtin_algebra("abelian", dim=2)
    return g, n, BilinearProduct(QQ, 2, product_table)


def test_check_structure_accepts_catalog_shapes():
    for entry_id in ("V1", "V5", "V8"):
        pair = get_entry(entry_id).build_sample({})
        report = check_structure(pair.g, pair.n, pair.product)
        assert report.passed
        assert [it.name for it in report.items] == [
            "skew-part", "module-action", "derivation-action"]


def test_module_action_witness_on_corrupted_product():
    # e2.e2 = e1 is fine; adding e1.e1 = e2 breaks left-commutativity
    g, n, product = _abelian_pair({(1, 1): {0: 1}, (0, 0): {1: 1}})
    report = check_structure(g, n, product)
    item = report.item("module-action")
    assert not item.passed
    assert item.witness == (0, 1, 0)
    assert item.discrepancy == (1, 0)
    assert report.item("skew-part").passed

    algebra_view = check_algebra(product, n)
    bad = algebra_view.item("associator-skew")
    assert not bad.passed and bad.witness == (0, 1, 0)


def test_skew_part_witness():
    # asymmetric product over abelian brackets cannot satisfy the skew part
    g, n, product = _abelian_pair({(0, 1): {0: 1}})
    item = check_structure(g, n, product).item("skew-part")
    assert not item.passed
    assert item.witness == (0, 1) and item.discrepancy == (1, 0)


def test_derivation_action_witness():
    # product into the center direction misses the n3 bracket relation
    n = builtin_algebra("n3")
    g = builtin_algebra("n3")
    product = BilinearProduct(QQ, 3, {(0, 0): {0: 1}})
    item = check_structure(g, n, product).item("derivation-action")
    assert not item.passed
    assert item.witness == (0, 0, 1)


def test_pair_validation_raises_with_report():
    g, n, product = _abelian_pair({(0, 0): {1: 1}, (1, 1): {0: 1}})
    with pytest.raises(StructureError) as err:
        PostLiePair(g, n, product).validate()
    assert err.value.report is not None
    assert not err.value.report.passed


def test_associated_bracket_recovers_g(catalog_samples):
    for entry, sample, pair in catalog_samples:
        got = associated_bracket(pair.product, pair.n)
        for i in range(pair.dim):
            for j in range(i + 1, pair.dim):
                assert got.bracket_basis(i, j) == pair.g.bracket_basis(i, j), \
                    (entry.entry_id, sample, i, j)


def test_associated_bracket_rejects_non_post_lie():
    sl2 = builtin_algebra("sl2")
    bad = lambda_product(sl2, 2)
    with pytest.raises(StructureError) as err:
        associated_bracket(bad.product, bad.n)
    # the algebra-only view reports the violation as associator-skew
    assert "associator-skew" in str(err.value)


def test_scalar_product_needs_class_two():
    # lam [,] is a structure exactly on class <= 2; the witness on sl2
    # pins the first violation of the module identity
    sl2 = builtin_algebra("sl2")
    raw = lambda_product(sl2, 2)
    report = check_structure(raw.g, raw.n, raw.product)
    item = report.item("module-action")
    assert not item.passed
    assert item.witness == (0, 1, 0)
    assert item.discrepancy == (Fraction(-4), 0, 0)
    assert report.item("skew-part").passed
    assert report.item("derivation-action").passed


def test_derived_identity_audit_names_and_passes():
    pair = get_entry("heis_commutative").build_sample(
        {"alpha": 1, "beta": 2, "gamma": 3})
    report = derived_identity_audit(pair)
    assert report.passed
    assert tuple(it.name for it in report.items) == AUDIT_ITEMS


def test_left_multiplications():
    pair = get_entry("V8").build_sample({})
    mats = left_multiplications(pair)
    assert len(mats) == 2
    assert mats[1].col(0) == (-1, 0)  # e2.e1 = -e1
    assert mats[0].is_zero()
    x = (QQ.scalar(3), QQ.scalar(-2))
    assert left_mult_matrix(pair, x) == \
        mats[0].scale(x[0]) + mats[1].scale(x[1])


def test_completeness_flags_on_catalog():
    expected = {"V1": True, "V5": True, "V7": True,
                "V2": False, "V6": False, "V8": False}
    for entry_id, flag in expected.items():
        pair = get_entry(entry_id).build_sample({})
        assert is_complete_structure(pair) is flag, entry_id
        assert sampled_left_mult_nilpotency(pair) is flag, entry_id


def test_v9_zero_left_versus_right_completeness():
    """At alpha = 0 the V9 product has L(e2) e1 = -e1, so the left
    multiplications are not all nilpotent, while every right
    multiplication is.  V8 shares the nilpotent right side, so the two
    completeness notions genuinely diverge on the catalog."""
    v9_zero = get_entry("V9").build_sample({"alpha": 0})
    assert is_complete_structure(v9_zero) is False
    assert sampled_left_mult_nilpotency(v9_zero) is False
    assert all_right_multiplications_nilpotent(v9_zero) is True

    v8 = get_entry("V8").build_sample({})
    assert is_complete_structure(v8) is False
    assert all_right_multiplications_nilpotent(v8) is True


def test_completeness_over_finite_fields_is_exact():
    # x -> 5x on a one-dimensional slot is nilpotent mod 5, and the image
    # chain must see that without eigenvalues
    pair = get_entry("V9").build_sample({"alpha": 0}, field=GF(5))
    assert is_complete_structure(pair) is False
    assert all_right_multiplications_nilpotent(pair) is True

    # every structure on (r2, abelian) and (abelian, r2) over GF(3): the
    # image chain of the L(e_i) reaches 0 exactly when L(x)^dim = 0 for
    # every x, because module-action makes {L(x)} a Lie algebra and
    # Engel's theorem applies; the chain of the R(e_i) reaching 0 implies
    # that R(x)^dim = 0 for every x
    F = GF(3)
    dim = 2
    basis = [unit_vector(F, dim, i) for i in range(dim)]
    points = [tuple(F.scalar(c) for c in coords)
              for coords in itertools.product(range(3), repeat=dim)]
    r2 = builtin_algebra("r2", field=F)
    ab = builtin_algebra("abelian", field=F, dim=dim)
    flags = set()
    for g, n, hit_count in ((r2, ab, 21), (ab, r2, 12)):
        hits = enumerate_products(SearchSpec(g, n)).products()
        assert len(hits) == hit_count
        for product in hits:
            pair = PostLiePair(g, n, product).validate()

            def nilpotent(x, left):
                cols = [product.product(x, e) if left
                        else product.product(e, x) for e in basis]
                return Matrix.from_cols(F, cols).power(dim).is_zero()

            left = is_complete_structure(pair)
            right = all_right_multiplications_nilpotent(pair)
            assert left is all(nilpotent(x, True) for x in points)
            if right:
                assert all(nilpotent(x, False) for x in points)
            flags.add((left, right))
    assert {left for left, _ in flags} == {True, False}
    assert {right for _, right in flags} == {True, False}


def test_special_cases_zero_product():
    # V1 has abelian g and n, so the zero product carries every tag
    cases = special_case_detect(get_entry("V1").build_sample({}))
    for tag in (TAG_ZERO, TAG_PRE_LIE, TAG_LR_PAIR, TAG_COMMUTATIVE,
                TAG_SCALAR, TAG_LSA, TAG_LR_IDENTITY, TAG_NOVIKOV,
                TAG_CYCLIC):
        assert cases.has(tag), tag
    assert cases.scalar_ratio == 0

    # nonabelian n drops the pre-Lie reading but keeps the rest
    zero_n3 = special_case_detect(get_entry("zero_n3").build_sample({}))
    assert not zero_n3.has(TAG_PRE_LIE) and not zero_n3.has(TAG_LR_PAIR)
    assert zero_n3.has(TAG_ZERO) and zero_n3.scalar_ratio == 0


def test_special_cases_scalar_ratio():
    pair = lambda_product(builtin_algebra("n3"), Fraction(1, 3)).validate()
    cases = special_case_detect(pair)
    assert cases.has(TAG_SCALAR)
    assert cases.scalar_ratio == Fraction(1, 3)

    adj = get_entry("adjoint_sl2").build_sample({})
    assert special_case_detect(adj).scalar_ratio == 1


def _slotwise_scalar_ratio(g, product):
    """The scalar lam with x.y = lam [x,y], by the slot-by-slot checks
    that `_scalar_ratio` replaced: the oracle it is tested against."""
    dim = g.dim
    pairs = [(i, j) for i in range(dim) for j in range(i + 1, dim)]
    lam = None
    for i, j in pairs:
        vec = g.bracket_basis(i, j)
        for k in range(dim):
            if vec[k] != 0:
                lam = product.product_basis(i, j)[k] / vec[k]
                break
        if lam is not None:
            break
    if lam is None:
        return g.field.zero if product.is_zero() else None
    for i in range(dim):
        if not is_zero_vec(product.product_basis(i, i)):
            return None
    for i, j in pairs:
        vec = g.bracket_basis(i, j)
        if product.product_basis(i, j) != vscale(lam, vec):
            return None
        if product.product_basis(j, i) != vscale(-lam, vec):
            return None
    return lam


@st.composite
def scalar_ratio_cases(draw):
    """A builtin g over Q or GF(p), p in {2, 3, 5, 7}, abelian of
    dimension 1 to 3 or in a random basis, with the product lam [,]
    written slot by slot, and one slot perturbed half of the time."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]))
    scalar = (st.fractions(min_value=-3, max_value=3, max_denominator=3)
              if field.is_rational else st.integers(0, field.p - 1))
    name = draw(st.sampled_from(["abelian", "r2", "n3", "r3", "r3_lambda",
                                 "sl2"]))
    g = builtin_algebra(name, field, dim=draw(st.integers(1, 3)),
                        lam=draw(scalar))
    dim = g.dim
    T = Matrix(field, [[draw(scalar) for _ in range(dim)]
                       for _ in range(dim)])
    if inverse(T) is not None:
        g = g.change_basis(T)
    lam = field.scalar(draw(scalar))
    table = {(i, j): [lam * a for a in g.bracket_basis(i, j)]
             for i in range(dim) for j in range(dim)}
    if draw(st.booleans()):
        i, j, k = (draw(st.integers(0, dim - 1)) for _ in range(3))
        table[(i, j)][k] += draw(scalar.filter(bool))
    return g, BilinearProduct(field, dim, table)


@settings(max_examples=300, deadline=None)
@given(scalar_ratio_cases())
def test_scalar_ratio_matches_the_slotwise_checks(case):
    g, product = case
    got, want = _scalar_ratio(g, product), _slotwise_scalar_ratio(g, product)
    assert (got is None) == (want is None)
    assert got == want


def test_special_cases_lr_pair_tags():
    v8 = get_entry("V8").build_sample({})
    cases = special_case_detect(v8)
    assert cases.has(TAG_LR_PAIR)  # g is abelian
    assert cases.has(TAG_LSA) and cases.has(TAG_LR_IDENTITY)
    assert not cases.has(TAG_COMMUTATIVE)
    assert cases.scalar_ratio is None


def _six_term_sides(pair, x, y, z):
    prod = pair.product.product
    left = vadd(vadd(prod(x, prod(y, z)), prod(y, prod(x, z))),
                prod(z, prod(x, y)))
    right = vadd(vadd(prod(prod(y, z), x), prod(prod(x, z), y)),
                 prod(prod(x, y), z))
    return left, right


@pytest.mark.parametrize("alpha1", [1, 2, -1])
def test_v16_six_term_identity_only_at_one(alpha1):
    """x.(y.z) + y.(x.z) + z.(x.y) = (y.z).x + (x.z).y + (x.y).z holds in
    the V16 family exactly when alpha1 = 1; (e1, e2, e2) separates the
    other members."""
    pair = get_entry("V16").build_sample({"alpha1": alpha1})
    e1 = unit_vector(QQ, 2, 0)
    e2 = unit_vector(QQ, 2, 1)
    left, right = _six_term_sides(pair, e1, e2, e2)
    assert left == vscale(QQ.scalar(2 * alpha1), e1)
    assert right == vscale(QQ.scalar(2), e1)
    assert special_case_detect(pair).has(TAG_CYCLIC) is (alpha1 == 1)


def test_v17_fails_six_term_identity():
    pair = get_entry("V17").build_sample({})
    e1 = unit_vector(QQ, 2, 0)
    e2 = unit_vector(QQ, 2, 1)
    left, right = _six_term_sides(pair, e1, e2, e2)
    assert left == vscale(QQ.scalar(-2), e1)
    assert right == vscale(QQ.scalar(2), e1)
    assert not special_case_detect(pair).has(TAG_CYCLIC)


def test_prelie_deformation_on_two_step():
    pair = heis_commutative(0, 1, 0)
    prelie, report = prelie_from_two_step(pair)
    assert report.passed
    assert [it.name for it in report.items] == [
        "commutator-matches-bracket", "left-symmetry"]
    # o differs from . by half the n-bracket
    half = QQ.scalar(Fraction(1, 2))
    for i in range(3):
        for j in range(3):
            expected = vadd(pair.product.product_basis(i, j),
                            vscale(half, pair.n.bracket_basis(i, j)))
            assert prelie.product_basis(i, j) == expected


def test_prelie_deformation_on_zero_product():
    pair = get_entry("zero_n3").build_sample({})
    prelie, report = prelie_from_two_step(pair)
    assert report.passed
    # the deformation of the zero product is half the bracket
    assert prelie.product_basis(0, 1) == (0, 0, Fraction(1, 2))


def test_prelie_deformation_guards():
    with pytest.raises(StructureError):
        prelie_from_two_step(get_entry("zero_sl2").build_sample({}))
    gf2_pair = lambda_product(builtin_algebra("n3", field=GF(2)),
                              0).validate()
    with pytest.raises(UnsupportedFieldError):
        prelie_from_two_step(gf2_pair)


def test_endomorphism_ansatz_zero_and_negated_identity():
    sl2 = builtin_algebra("sl2")
    zero = pair_from_phi(sl2, Matrix.zeros(QQ, 3, 3))
    assert zero.validated and zero.product.is_zero()

    neg = pair_from_phi(sl2, Matrix.identity(QQ, 3).scale(-1))
    assert neg.product.product_basis(0, 1) == tuple(-c for c in
                                                    sl2.bracket_basis(0, 1))

    # phi = id is NOT a hit on a simple bracket: the induced first table
    # is 3{,} and the module identity picks up a factor of 2
    with pytest.raises(StructureError) as info:
        pair_from_phi(sl2, Matrix.identity(QQ, 3))
    item = info.value.report.item("module-action")
    assert not item.passed
    assert item.witness == (0, 1, 0)
    assert item.discrepancy == (Fraction(4), Fraction(0), Fraction(0))


def test_endomorphism_ansatz_failure_witness():
    sl2 = builtin_algebra("sl2")
    phi = Matrix(QQ, [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    # the induced bracket is not a Lie bracket, so validation stops at
    # its Jacobi scan
    with pytest.raises(StructureError) as info:
        pair_from_phi(sl2, phi)
    jacobi = info.value.report.item("jacobi")
    assert not jacobi.passed
    assert jacobi.witness == (0, 1, 2)
    assert jacobi.discrepancy == (Fraction(0), Fraction(0), Fraction(4))


def test_endomorphism_ansatz_allows_center():
    # phi is not determined by the product when n has a centre: phi = 0
    # and a phi into the centre of n3 both give the zero product
    n3 = builtin_algebra("n3")
    for phi in (Matrix.zeros(QQ, 3, 3),
                Matrix(QQ, [[0, 0, 0], [0, 0, 0], [1, 2, 3]])):
        pair = pair_from_phi(n3, phi)
        assert pair.validated and pair.product.is_zero()


def test_endomorphism_recovery_round_trip():
    # the adjoint pair carries n-bracket -[,], so x.y = [x,y] = {-x, y}
    adj = get_entry("adjoint_sl2").build_sample({})
    assert endomorphism_from_structure(adj) == Matrix.identity(QQ, 3).scale(-1)
    zero = get_entry("zero_sl2").build_sample({})
    assert endomorphism_from_structure(zero) == Matrix.zeros(QQ, 3, 3)

    fam = sl2_family(2, 1)
    phi = endomorphism_from_structure(fam)
    assert pair_from_phi(fam.n, phi).product == fam.product


def test_endomorphism_recovery_needs_complete_n():
    with pytest.raises(StructureError):
        endomorphism_from_structure(get_entry("zero_n3").build_sample({}))


def test_embedding_ambient_is_lie_on_every_catalog_sample():
    """embed takes the semidirect sum with n's own derivation algebra as
    Lie without a Jacobi scan; the scan passes on every catalog sample."""
    for entry in all_entries():
        for sample in entry.samples:
            emb = embed_semidirect(entry.build_sample(sample))
            assert emb.passed and emb.semidirect.validated, entry.entry_id
            assert check_lie_axioms(emb.semidirect).passed, entry.entry_id


def test_embedding_structure():
    pair = get_entry("V6").build_sample({})
    emb = embed_semidirect(pair)
    assert emb.passed
    assert emb.semidirect.validated
    assert check_lie_axioms(emb.semidirect).passed
    # images project to the standard basis and carry L(e_i)
    for i, (vec, D) in enumerate(emb.graph_elements()):
        assert vec == unit_vector(QQ, 2, i)
        assert D == pair.product.left_matrix_basis(i)


def test_graph_subalgebra_round_trip():
    for entry_id, sample in [("V6", {}), ("V9", {"alpha": 2}),
                             ("adjoint_sl2", {}),
                             ("heis_commutative",
                              {"alpha": 1, "beta": 2, "gamma": 3})]:
        pair = get_entry(entry_id).build_sample(sample)
        emb = embed_semidirect(pair)
        back = structure_from_graph_subalgebra(pair.n, emb.graph_elements())
        assert back.g == pair.g, entry_id
        assert back.product == pair.product, entry_id


def test_graph_subalgebra_guards():
    n = builtin_algebra("abelian", dim=2)
    zero = Matrix.zeros(QQ, 2, 2)
    e1 = unit_vector(QQ, 2, 0)
    with pytest.raises(DimensionError):
        structure_from_graph_subalgebra(n, [(e1, zero)])
    # degenerate projection: both elements sit over e1
    with pytest.raises(StructureError):
        structure_from_graph_subalgebra(n, [(e1, zero), (e1, zero)])
    # a non-derivation matrix on n3 is refused
    n3 = builtin_algebra("n3")
    with pytest.raises(StructureError):
        structure_from_graph_subalgebra(
            n3, [(unit_vector(QQ, 3, i), Matrix.identity(QQ, 3))
                 for i in range(3)])


def test_graph_subalgebra_rejects_non_closed_span():
    # rotating derivations of the abelian plane do not commute with the
    # shears, so this span misses the semidirect closure
    n = builtin_algebra("abelian", dim=2)
    rot = Matrix(QQ, [[0, -1], [1, 0]])
    shear = Matrix(QQ, [[0, 1], [0, 0]])
    with pytest.raises(StructureError):
        structure_from_graph_subalgebra(
            n, [(unit_vector(QQ, 2, 0), rot), (unit_vector(QQ, 2, 1), shear)])


def test_split_semisimple():
    adj = get_entry("adjoint_sl2").build_sample({})
    split = split_semisimple(adj)
    assert split.passed
    assert split.ambient.dim == 6
    zero = get_entry("zero_sl2").build_sample({})
    assert split_semisimple(zero).passed
    family = get_entry("sl2_family")
    for sample in family.samples:
        assert split_semisimple(family.build_sample(sample)).passed
    with pytest.raises(StructureError):
        split_semisimple(get_entry("zero_n3").build_sample({}))
    with pytest.raises(UnsupportedFieldError):
        split_semisimple(get_entry("zero_sl2").build_sample({}, field=GF(7)))


def test_theorem_audit_statuses():
    v9 = get_entry("V9").build_sample({"alpha": 1})
    audit = theorem_audit(v9)
    assert audit.consistent and not audit.advisory
    assert audit.finding("nilpotent-g-gives-solvable-n").status == \
        "NOT_APPLICABLE"  # g = r2 is not nilpotent
    assert audit.finding("two-step-n-gives-prelie-g").status == "CONSISTENT"
    assert audit.finding("simple-g-gives-simple-n").status == \
        "NOT_APPLICABLE"  # dimension 2

    adj = get_entry("adjoint_sl2").build_sample({})
    audit3 = theorem_audit(adj)
    assert audit3.consistent
    assert audit3.finding("simple-g-gives-simple-n").status == "CONSISTENT"
    assert audit3.finding("simple-pair-trivial-product").status == "CONSISTENT"


def test_theorem_audit_is_advisory_over_fp():
    pair = get_entry("V1").build_sample({}, field=GF(5))
    audit = theorem_audit(pair)
    assert audit.advisory and audit.consistent
    as_dict = audit.as_dict()
    assert as_dict["advisory"] is True
    assert {f["name"] for f in as_dict["findings"]} >= {
        "nilpotent-g-gives-solvable-n", "two-step-n-gives-prelie-g"}


def test_sl2_family_brackets_and_perfection():
    fam = sl2_family(2, 1)
    assert fam.validated
    assert is_perfect(fam.n)
    assert not is_perfect(fam.g) and not is_nilpotent(fam.g)


@st.composite
def product_and_bases(draw):
    """A random product over Q or GF(p), p in {2, 3, 5, 7}, in dimension
    1 to 3, with two random (possibly singular) matrices of its size."""
    field = draw(st.sampled_from([QQ, GF(2), GF(3), GF(5), GF(7)]))
    dim = draw(st.integers(1, 3))
    scalar = (st.fractions(min_value=-3, max_value=3, max_denominator=3)
              if field.is_rational else st.integers(0, field.p - 1))

    def matrix():
        return Matrix(field, [[draw(scalar) for _ in range(dim)]
                              for _ in range(dim)])

    table = {(i, j): [draw(scalar) for _ in range(dim)]
             for i in range(dim) for j in range(dim) if draw(st.booleans())}
    return BilinearProduct(field, dim, table), matrix(), matrix()


def _conjugated_by_formula(product, T):
    """T^-1 (T e_i . T e_j) slot by slot, in the field's scalar classes."""
    Tinv = inverse(T)
    n = product.dim
    return BilinearProduct(product.field, n, {
        (i, j): Tinv.apply(product.product(T.col(i), T.col(j)))
        for i in range(n) for j in range(n)})


@settings(max_examples=150, deadline=None)
@given(product_and_bases())
def test_change_basis_matches_the_slot_formula(case):
    product, S, T = case
    if inverse(T) is None:
        with pytest.raises(DimensionError):
            product.change_basis(T)
        return
    moved = product.change_basis(T)
    assert moved == _conjugated_by_formula(product, T)
    assert product.change_basis(T, inverse(T)) == moved
    if inverse(S) is not None:
        assert product.change_basis(S).change_basis(T) == \
            product.change_basis(S * T)


def test_change_basis_rejects_mismatched_matrices():
    """T is checked before any table is conjugated, the empty one too:
    its field, its shape and, when no inverse is given, its
    invertibility."""
    zero = BilinearProduct.zero(GF(3), 2)
    for product in (BilinearProduct(GF(3), 2, {(0, 1): [1, 2]}), zero):
        with pytest.raises(DimensionError):
            product.change_basis(Matrix.zeros(GF(3), 2, 2))
        with pytest.raises(DimensionError):
            product.change_basis(Matrix.identity(GF(3), 3))
        with pytest.raises(FieldMismatchError):
            product.change_basis(Matrix.identity(GF(5), 2))
    T = Matrix(GF(3), [[1, 2], [0, 1]])
    for moved in (zero.change_basis(T), zero.change_basis(T, inverse(T))):
        assert moved == zero and moved.raw == {}
