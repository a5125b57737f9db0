"""Catalog entries: construction, annotations, normal forms."""

from fractions import Fraction

import pytest

from postlie.catalog import (all_entries, builtin_algebra, case4_raw_family,
                             get_entry, heis_commutative, lambda_product,
                             normalize_case4, sl2_family)
from postlie.errors import ParameterError, UnsupportedFieldError
from postlie.fields import GF, QQ
from postlie.lie import (LieAlgebra, classify_low_dim, is_nilpotent,
                         is_solvable)
from postlie.linalg import Matrix
from postlie.structures import (BilinearProduct, is_complete_structure,
                                special_case_detect)


def test_entry_ids_are_unique_and_resolvable():
    entries = all_entries()
    ids = [e.entry_id for e in entries]
    assert len(ids) == len(set(ids))
    assert [e.entry_id for e in entries[:17]] == \
        ["V%d" % k for k in range(1, 18)]
    assert get_entry("V3").summary.startswith("two orthogonal")
    with pytest.raises(ParameterError):
        get_entry("V18")


def test_every_sample_builds_and_validates(catalog_samples):
    # 24 classification samples (V9, V10, V14, V16 are families) plus 13
    # from the worked example entries
    assert len(catalog_samples) == \
        sum(len(e.samples) for e in all_entries()) == 37
    for entry, sample, pair in catalog_samples:
        assert pair.validated, (entry.entry_id, sample)
        assert pair.name == entry.sample_name(sample)


def test_annotations_hold_on_every_sample(catalog_samples):
    for entry, sample, pair in catalog_samples:
        cases = special_case_detect(pair)
        missing = entry.expect_tags - cases.tags
        assert not missing, (entry.entry_id, sample, missing)
        hit = entry.forbid_tags & cases.tags
        assert not hit, (entry.entry_id, sample, hit)
        if entry.expect_complete is not None:
            assert is_complete_structure(pair) is entry.expect_complete, \
                (entry.entry_id, sample)


def test_sample_names():
    assert get_entry("V9").sample_name({"alpha": 2}) == "V9(2)"
    assert get_entry("V1").sample_name({}) == "V1"
    assert get_entry("heis_commutative").sample_name(
        {"alpha": -1, "beta": Fraction(1, 2), "gamma": 5}) == \
        "heis_commutative(-1,1/2,5)"


def test_v9_parameter_family():
    for alpha in (0, 1, 2, -3, Fraction(5, 2)):
        pair = get_entry("V9").build_sample({"alpha": alpha})
        assert pair.product.product_basis(1, 1) == (0, QQ.scalar(alpha))
        assert pair.product.product_basis(1, 0) == (-1, 0)


def test_heis_commutative_frozen_table():
    pair = heis_commutative(1, 2, 3)
    assert pair.name == "heis_commutative(1,2,3)"
    table = pair.product
    assert table.product_basis(0, 0) == (1, Fraction(-1, 2), 1)
    assert table.product_basis(0, 1) == (2, -1, Fraction(7, 4))
    assert table.product_basis(0, 1) == table.product_basis(1, 0)
    assert table.product_basis(1, 1) == (4, -2, 3)
    # all three criterion samples validate, including the fractional one
    for args in [(0, 1, 0), (1, 2, 3), (-1, Fraction(1, 2), 5)]:
        assert heis_commutative(*args).validated


def test_heis_commutative_needs_odd_characteristic():
    with pytest.raises(UnsupportedFieldError):
        heis_commutative(0, 1, 0, field=GF(2))
    assert heis_commutative(0, 1, 0, field=GF(7)).validated


def test_sl2_family_classification():
    expected = {(2, 1): (Fraction(-2), Fraction(-1, 2)),
                (1, -1): (Fraction(1),),
                (3, 0): (Fraction(0),)}
    for (alpha, beta), ratios in expected.items():
        pair = sl2_family(alpha, beta)
        cls = classify_low_dim(pair.g)
        assert cls.name == "r3_lambda", (alpha, beta)
        assert is_solvable(pair.g) and not is_nilpotent(pair.g)
        assert cls.ratio_set == ratios, (alpha, beta)
        assert classify_low_dim(pair.n).name == "sl2"


def test_sl2_family_completeness_is_parameter_dependent():
    # beta = 0 leaves a single nonzero left multiplication, which is
    # nilpotent; any beta != 0 puts a nonzero eigenvalue on L(e3)
    assert is_complete_structure(sl2_family(3, 0)) is True
    assert is_complete_structure(sl2_family(2, 1)) is False
    assert get_entry("sl2_family").expect_complete is None


def test_lambda_product_bracket_scaling():
    n3 = builtin_algebra("n3")
    for lam in (2, -1, Fraction(1, 3)):
        pair = lambda_product(n3, lam).validate()
        factor = QQ.scalar(1 - 2 * QQ.scalar(lam))
        assert pair.n.bracket_basis(0, 1) == (0, 0, factor)
        assert pair.g.bracket_basis(0, 1) == (0, 0, 1)
        assert pair.product.product_basis(0, 1) == (0, 0, QQ.scalar(lam))


def test_lambda_product_fraction_guard():
    with pytest.raises(UnsupportedFieldError):
        lambda_product(builtin_algebra("n3", field=GF(3)), Fraction(1, 3))


def test_case4_raw_families_validate():
    assert case4_raw_family("first", 2, 5).validated
    assert case4_raw_family("second", -1, 7).validated
    with pytest.raises(ParameterError):
        case4_raw_family("third", 1, 0)
    with pytest.raises(ParameterError):
        case4_raw_family("first", 0, 1)


# the Case 4 entries as their tables: (g, n, product) of each sample,
# and the family member it is
CASE4_TABLES = {
    "V14": lambda a: ({(0, 1): {0: a}}, {(0, 1): {0: 1}},
                      {(1, 0): {0: 1 - a}}),
    "V15": lambda a: ({(0, 1): {0: 1}}, {(0, 1): {0: 1}}, {(1, 1): {0: 1}}),
    "V16": lambda a: ({(0, 1): {0: a}}, {(0, 1): {0: 1}},
                      {(0, 1): {0: -1}, (1, 0): {0: -a}}),
    "V17": lambda a: ({(0, 1): {0: -1}}, {(0, 1): {0: 1}},
                      {(0, 1): {0: -1}, (1, 0): {0: 1}, (1, 1): {0: 1}}),
}
CASE4_MEMBERS = {"V14": lambda a: ("first", a, 0),
                 "V15": lambda a: ("first", 1, 1),
                 "V16": lambda a: ("second", a, 0),
                 "V17": lambda a: ("second", -1, 1)}


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "GF5"])
@pytest.mark.parametrize("entry_id", sorted(CASE4_TABLES))
def test_case4_entries_are_their_family_members(entry_id, field):
    entry = get_entry(entry_id)
    for sample in entry.samples:
        a = sample.get("alpha1")
        pair = entry.build_sample(sample, field=field)
        member = case4_raw_family(*CASE4_MEMBERS[entry_id](a), field=field)
        g, n, product = CASE4_TABLES[entry_id](a)
        want = (LieAlgebra(field, 2, g), LieAlgebra(field, 2, n),
                BilinearProduct(field, 2, product))
        assert (pair.g, pair.n, pair.product) == want
        assert (member.g, member.n, member.product) == want


@pytest.mark.parametrize("which,alpha1,coeff,entry_id,params", [
    ("first", 2, 5, "V14", {"alpha1": 2}),
    ("first", -1, 4, "V14", {"alpha1": -1}),
    ("first", 1, 3, "V15", {}),
    ("first", 1, 0, "V14", {"alpha1": 1}),
    ("second", 2, 1, "V16", {"alpha1": 2}),
    ("second", -1, 7, "V17", {}),
    ("second", -1, 0, "V16", {"alpha1": -1}),
])
def test_case4_normalization(which, alpha1, coeff, entry_id, params):
    norm = normalize_case4(which, alpha1, coeff)
    assert norm.entry_id == entry_id
    assert {k: QQ.scalar(v) for k, v in norm.params.items()} == \
        {k: QQ.scalar(v) for k, v in params.items()}
    target = get_entry(entry_id).build_sample(norm.params)
    assert norm.normalized.product == target.product
    assert norm.normalized.g == target.g and norm.normalized.n == target.n
    # the recorded automorphism actually carries raw onto normalized
    assert norm.raw.product.change_basis(norm.automorphism) == \
        norm.normalized.product


def _gl2(field, p):
    mats = []
    for a in range(p):
        for b in range(p):
            for c in range(p):
                for d in range(p):
                    if (a * d - b * c) % p != 0:
                        mats.append(Matrix(field, [[a, b], [c, d]]))
    return mats


def test_v16_at_one_and_v17_are_not_isomorphic_over_f3():
    """No basis change over GF(3) carries V16(1) onto V17: the forty-eight
    invertible matrices are checked one by one."""
    F = GF(3)
    left = get_entry("V16").build_sample({"alpha1": 1}, field=F)
    right = get_entry("V17").build_sample({}, field=F)
    mats = _gl2(F, 3)
    assert len(mats) == 48
    matched = False
    for T in mats:
        if (left.product.change_basis(T) == right.product
                and left.g.change_basis(T) == right.g
                and left.n.change_basis(T) == right.n):
            matched = True
            break
    assert not matched
    # control: the identity fixes V16(1)
    ident = Matrix.identity(F, 2)
    assert left.product.change_basis(ident) == left.product


def test_catalog_builds_over_f7(catalog_samples):
    for entry, sample, _ in catalog_samples:
        pair = entry.build_sample(sample, field=GF(7))
        assert pair.validated and pair.field == GF(7)


def test_entry_notes_are_factual():
    v16 = get_entry("V16")
    assert "alpha1 = 1" in v16.note
    v9 = get_entry("V9")
    assert "right" in v9.note
    fam = get_entry("sl2_family")
    assert "beta" in fam.note
