"""Built-in model algebras, the two-dimensional structure catalog, and the
worked three-dimensional example families.

The catalog lists every isomorphism class of structure on a pair of
two-dimensional algebras, grouped by which of g and n is abelian, plus the
commutative family on the Heisenberg algebra, the family living on the
split simple algebra, and the scalar-multiple products.  Each entry knows
how to build itself over any field, which sample parameters exercise it,
and which structural annotations (tags, completeness) are expected of it.
"""

from dataclasses import dataclass
from fractions import Fraction

from .errors import ParameterError, UnsupportedFieldError
from .fields import QQ
from .lie import LieAlgebra
from .linalg import Matrix
from .structures import (TAG_COMMUTATIVE, TAG_CYCLIC, TAG_LR_IDENTITY,
                         TAG_LR_PAIR, TAG_LSA, TAG_PRE_LIE, TAG_SCALAR,
                         TAG_ZERO, BilinearProduct, PostLiePair,
                         scalar_multiple)

BUILTIN_NAMES = ("abelian", "r2", "n3", "r3", "r3_lambda", "sl2")


def builtin_algebra(name, field=QQ, dim=None, lam=None):
    """One of the model algebras, validated.

    abelian(dim): zero bracket.
    r2: [e1,e2] = e1, the nonabelian two-dimensional algebra.
    n3: [e1,e2] = e3, the Heisenberg algebra.
    r3: [e1,e2] = e2, [e1,e3] = e2 + e3.
    r3_lambda(lam): [e1,e2] = e2, [e1,e3] = lam e3.
    sl2: [e1,e2] = e3, [e1,e3] = -2 e1, [e2,e3] = 2 e2.
    """
    if name == "abelian":
        if dim is None:
            raise ParameterError("abelian needs a dimension")
        return LieAlgebra(field, dim, {}, name="abelian(%d)" % dim).validate()
    if name == "r2":
        return LieAlgebra(field, 2, {(0, 1): {0: 1}}, name="r2").validate()
    if name == "n3":
        return LieAlgebra(field, 3, {(0, 1): {2: 1}}, name="n3").validate()
    if name == "r3":
        return LieAlgebra(field, 3, {(0, 1): {1: 1}, (0, 2): {1: 1, 2: 1}},
                          name="r3").validate()
    if name == "r3_lambda":
        if lam is None:
            raise ParameterError("r3_lambda needs the eigenvalue lam")
        lam = field.scalar(lam)
        return LieAlgebra(field, 3, {(0, 1): {1: 1}, (0, 2): {2: lam}},
                          name="r3_lambda(%s)" % lam).validate()
    if name == "sl2":
        return LieAlgebra(field, 3,
                          {(0, 1): {2: 1}, (0, 2): {0: -2}, (1, 2): {1: 2}},
                          name="sl2").validate()
    raise ParameterError("unknown builtin %r (have: %s)" %
                         (name, ", ".join(BUILTIN_NAMES)))


def _pair(field, g_table, n_table, product_table, dim=2, name=None,
          g_name=None, n_name=None):
    g = LieAlgebra(field, dim, g_table, name=g_name or "g")
    n = LieAlgebra(field, dim, n_table, name=n_name or "n")
    product = BilinearProduct(field, dim, product_table)
    return PostLiePair(g, n, product, name=name).validate()


@dataclass(frozen=True)
class CatalogEntry:
    """One structure family: an id, a builder, and expected annotations.

    `expect_tags` / `forbid_tags` only list tags that are parameter
    independent; `expect_complete` is None when completeness varies with
    the parameters (the per-sample truth lives in the test suite).
    """

    entry_id: str
    summary: str
    parameters: tuple
    samples: tuple
    build: object
    expect_tags: frozenset = frozenset()
    forbid_tags: frozenset = frozenset()
    expect_complete: bool | None = None
    note: str = ""

    def build_sample(self, sample, field=QQ):
        pair = self.build(field=field, **sample)
        pair.name = self.sample_name(sample)
        return pair

    def sample_name(self, sample):
        if not self.parameters:
            return self.entry_id
        inner = ",".join(str(sample[p]) for p in self.parameters)
        return "%s(%s)" % (self.entry_id, inner)


def _case1(product_table):
    def build(field=QQ):
        return _pair(field, {}, {}, product_table,
                     g_name="abelian(2)", n_name="abelian(2)")
    return build


def _case2(product_table):
    def build(field=QQ):
        return _pair(field, {}, {(0, 1): {0: -1}}, product_table,
                     g_name="abelian(2)", n_name="r2-like")
    return build


def _case3(product_fn, parameters):
    def build(field=QQ, **params):
        vals = {k: field.scalar(params[k]) for k in parameters}
        return _pair(field, {(0, 1): {0: 1}}, {}, product_fn(field, **vals),
                     g_name="r2", n_name="abelian(2)")
    return build


def _check_nonzero(value, label, entry):
    if value == 0:
        raise ParameterError("%s requires %s nonzero" % (entry, label))


def _V9_products(field, alpha):
    return {(1, 0): {0: -1}, (1, 1): {1: alpha}}


def _V10_products(field, beta):
    _check_nonzero(beta, "beta", "V10")
    return {(0, 1): {0: beta}, (1, 0): {0: beta - 1}, (1, 1): {1: beta}}


def _case4(entry_id, which, alpha1=None, coeff=0):
    """The builder of a case-4 entry: the member (alpha1, coeff) of the
    raw family `which` (see `case4_raw_family`), with alpha1 the entry's
    parameter when it is not fixed here."""
    def build(field=QQ, alpha1=alpha1):
        a1 = field.scalar(alpha1)
        _check_nonzero(a1, "alpha1", entry_id)
        return case4_raw_family(which, a1, coeff, field=field)
    return build


def heis_commutative(alpha, beta, gamma, field=QQ):
    """The commutative structures on the pair (n3, n3).

    Requires beta invertible (and characteristic not 2 for the mixed
    coefficient).  All left multiplications come out nilpotent, so every
    member of the family is complete.
    """
    if field.characteristic == 2:
        raise UnsupportedFieldError("heis_commutative needs 1/2")
    a = field.scalar(alpha)
    b = field.scalar(beta)
    c = field.scalar(gamma)
    if b == 0:
        raise ParameterError("heis_commutative requires beta nonzero")
    mixed = {0: b, 1: -1, 2: (c + a * b * b) / (2 * b)}
    table = {
        (0, 0): {0: 1, 1: -1 / b, 2: a},
        (0, 1): mixed,
        (1, 0): mixed,
        (1, 1): {0: b * b, 1: -b, 2: c},
    }
    heis = {(0, 1): {2: 1}}
    return _pair(field, heis, heis, table, dim=3, g_name="n3", n_name="n3",
                 name="heis_commutative(%s,%s,%s)" % (a, b, c))


def sl2_family(alpha, beta, field=QQ):
    """The structure family on n = sl2 with parameters alpha != beta.

    The induced g is solvable but never nilpotent; its isomorphism type
    moves with the parameters (r3_lambda with ratio data tied to
    -alpha/beta when beta is nonzero).
    """
    if field.characteristic == 2:
        raise UnsupportedFieldError("sl2_family needs 1/2")
    a = field.scalar(alpha)
    b = field.scalar(beta)
    if a == b:
        raise ParameterError("sl2_family requires alpha != beta")
    d = a - b
    table = {
        (1, 0): {0: -a, 2: 1},
        (2, 0): {0: 2 * b / d},
        (1, 1): {1: a, 2: (a * a - b * b) / 4},
        (2, 1): {1: -2 * b / d, 2: -b},
        (1, 2): {0: (b * b - a * a) / 2, 1: -2},
        (2, 2): {0: 2 * b},
    }
    g_table = {
        (0, 1): {0: a},
        (0, 2): {0: -2 * a / d},
        (1, 2): {0: (b * b - a * a) / 2, 1: 2 * b / d, 2: b},
    }
    n = builtin_algebra("sl2", field)
    g = LieAlgebra(field, 3, g_table, name="induced")
    product = BilinearProduct(field, 3, table)
    return PostLiePair(g, n, product,
                       name="sl2_family(%s,%s)" % (a, b)).validate()


def lambda_product(L, lam):
    """The pair carried by x.y = lam [x,y] on a validated algebra L.

    The matching n-bracket is (1 - 2 lam)[,].  The pair is returned raw
    (not validated): it is a structure exactly when L is nilpotent of
    class at most 2, and callers probing that boundary want the checker
    to decide."""
    L.validate()
    field = L.field
    lam = field.scalar(lam)
    product = scalar_multiple(L, lam)
    factor = 1 - 2 * lam
    n_table = {k: tuple(factor * a for a in vec)
               for k, vec in L.brackets.items()}
    n = LieAlgebra(field, L.dim, n_table,
                   name="scaled(%s)" % (L.name or "L"))
    g = LieAlgebra(field, L.dim, dict(L.brackets), name=L.name)
    return PostLiePair(g, n, product,
                       name="lambda_product(%s, %s)" % (L.name or "L", lam))


def _entry(entry_id, summary, build, parameters=(), samples=({},),
           expect_tags=(), forbid_tags=(), expect_complete=None, note=""):
    return CatalogEntry(entry_id, summary, tuple(parameters), tuple(samples),
                        build, frozenset(expect_tags), frozenset(forbid_tags),
                        expect_complete, note)


def _lambda_entry(entry_id, algebra_name, lam_samples, summary, **kw):
    def build(field=QQ, lam=0):
        base = builtin_algebra(algebra_name, field)
        pair = lambda_product(base, lam)
        return pair.validate()
    return _entry(entry_id, summary, build, parameters=("lam",),
                  samples=tuple({"lam": v} for v in lam_samples), **kw)


def classification_dim2_entries():
    """The seventeen structure classes on pairs of two-dimensional algebras."""
    both_lr = (TAG_PRE_LIE, TAG_LR_PAIR, TAG_COMMUTATIVE, TAG_LSA,
               TAG_LR_IDENTITY)
    entries = (
        _entry("V1", "zero product", _case1({}),
               expect_tags=(TAG_ZERO, TAG_PRE_LIE, TAG_LR_PAIR,
                            TAG_COMMUTATIVE, TAG_SCALAR),
               expect_complete=True),
        _entry("V2", "one idempotent: e1.e1 = e1", _case1({(0, 0): {0: 1}}),
               expect_tags=both_lr, forbid_tags=(TAG_SCALAR,),
               expect_complete=False),
        _entry("V3", "two orthogonal idempotents",
               _case1({(0, 0): {0: 1}, (1, 1): {1: 1}}), expect_tags=both_lr,
               expect_complete=False),
        _entry("V4", "e2 is a two-sided unit for e1 and itself",
               _case1({(0, 1): {0: 1}, (1, 0): {0: 1}, (1, 1): {1: 1}}),
               expect_tags=both_lr, expect_complete=False),
        _entry("V5", "square-zero generator: e2.e2 = e1",
               _case1({(1, 1): {0: 1}}), expect_tags=both_lr,
               expect_complete=True),
        _entry("V6", "idempotent absorbed by e2: e1.e1 = e1, e2.e1 = -e1",
               _case2({(0, 0): {0: 1}, (1, 0): {0: -1}}),
               expect_tags=(TAG_LR_PAIR, TAG_LR_IDENTITY),
               forbid_tags=(TAG_LSA,), expect_complete=False),
        _entry("V7", "e1.e2 = e1", _case2({(0, 1): {0: 1}}),
               expect_tags=(TAG_LR_PAIR, TAG_LR_IDENTITY),
               forbid_tags=(TAG_LSA,), expect_complete=True),
        _entry("V8", "e2.e1 = -e1", _case2({(1, 0): {0: -1}}),
               expect_tags=(TAG_LR_PAIR, TAG_LR_IDENTITY, TAG_LSA),
               expect_complete=False),
        _entry("V9", "e2.e1 = -e1 with e2.e2 = alpha e2",
               _case3(_V9_products, ("alpha",)), parameters=("alpha",),
               samples=({"alpha": 0}, {"alpha": 1}, {"alpha": 2}),
               expect_tags=(TAG_PRE_LIE, TAG_LSA), expect_complete=False,
               note="alpha = 0 also satisfies the LR identities and is "
                    "right-complete (all R(x) nilpotent) but not complete: "
                    "L(e2) is not nilpotent, and no (r2, abelian) structure "
                    "is left-complete"),
        _entry("V10", "two-sided scaling by beta",
               _case3(_V10_products, ("beta",)), parameters=("beta",),
               samples=({"beta": 1}, {"beta": 2}),
               expect_tags=(TAG_PRE_LIE, TAG_LSA), expect_complete=False),
        _entry("V11", "e2.e1 = -e1, e2.e2 = e1 - e2",
               _case3(lambda field: {(1, 0): {0: -1}, (1, 1): {0: 1, 1: -1}},
                      ()),
               expect_tags=(TAG_PRE_LIE, TAG_LSA), expect_complete=False),
        _entry("V12", "e1.e1 = e2 over the weight -2 action",
               _case3(lambda field: {(0, 0): {1: 1}, (1, 0): {0: -1},
                                     (1, 1): {1: -2}}, ()),
               expect_tags=(TAG_PRE_LIE, TAG_LSA), expect_complete=False),
        _entry("V13", "e1.e2 = e1, e2.e2 = e1 + e2",
               _case3(lambda field: {(0, 1): {0: 1}, (1, 1): {0: 1, 1: 1}},
                      ()),
               expect_tags=(TAG_PRE_LIE, TAG_LSA), expect_complete=False),
        _entry("V14", "e2.e1 = (1 - alpha1) e1 on matched r2 brackets",
               _case4("V14", "first"), parameters=("alpha1",),
               samples=({"alpha1": 1}, {"alpha1": 2}, {"alpha1": -1}),
               expect_tags=(TAG_LSA, TAG_LR_IDENTITY)),
        _entry("V15", "e2.e2 = e1 on matched r2 brackets",
               _case4("V15", "first", 1, 1),
               expect_tags=(TAG_LSA, TAG_LR_IDENTITY), expect_complete=True),
        _entry("V16", "left action by -1 against weight -alpha1",
               _case4("V16", "second"), parameters=("alpha1",),
               samples=({"alpha1": 1}, {"alpha1": 2}, {"alpha1": -1}),
               forbid_tags=(TAG_LSA, TAG_LR_IDENTITY),
               expect_complete=False,
               note="the six-term identity x.(y.z)+y.(x.z)+z.(x.y) = "
                    "(y.z).x+(x.z).y+(x.y).z holds in this family only for "
                    "alpha1 = 1; for any other alpha1 the triple "
                    "(e1, e2, e2) gives 2*alpha1*e1 on the left and 2*e1 "
                    "on the right"),
        _entry("V17", "opposed weights with e2.e2 = e1",
               _case4("V17", "second", -1, 1),
               forbid_tags=(TAG_CYCLIC, TAG_LSA, TAG_LR_IDENTITY),
               expect_complete=False,
               note="fails the six-term identity at (e1, e2, e2): "
                    "-2*e1 on the left against 2*e1 on the right"),
    )
    return entries


def example_entries():
    """The worked higher-dimensional families and scalar products."""
    return (
        _entry("heis_commutative",
               "commutative products on the Heisenberg pair",
               heis_commutative, parameters=("alpha", "beta", "gamma"),
               samples=({"alpha": 0, "beta": 1, "gamma": 0},
                        {"alpha": 1, "beta": 2, "gamma": 3},
                        {"alpha": -1, "beta": Fraction(1, 2), "gamma": 5}),
               expect_tags=(TAG_COMMUTATIVE,), expect_complete=True),
        _entry("sl2_family", "two-parameter family acting on sl2",
               sl2_family, parameters=("alpha", "beta"),
               samples=({"alpha": 2, "beta": 1}, {"alpha": 1, "beta": -1},
                        {"alpha": 3, "beta": 0}),
               expect_complete=None,
               note="completeness varies: beta = 0 leaves only L(e2), "
                    "which is nilpotent, while beta != 0 makes L(e3) "
                    "scale e1 by 2*beta/(alpha-beta)"),
        _lambda_entry("lambda_n3", "n3",
                      (2, -1, Fraction(1, 3), Fraction(1, 2)),
                      "scalar products lam[,] on the Heisenberg algebra",
                      expect_tags=(TAG_SCALAR,), expect_complete=True),
        _entry("zero_n3", "zero product on the Heisenberg pair",
               lambda field=QQ: lambda_product(
                   builtin_algebra("n3", field), 0).validate(),
               expect_tags=(TAG_ZERO, TAG_SCALAR, TAG_COMMUTATIVE),
               expect_complete=True),
        _entry("zero_sl2", "zero product on the simple pair",
               lambda field=QQ: lambda_product(
                   builtin_algebra("sl2", field), 0).validate(),
               expect_tags=(TAG_ZERO, TAG_SCALAR, TAG_COMMUTATIVE),
               expect_complete=True),
        _entry("adjoint_sl2", "x.y = [x,y] on the simple pair",
               lambda field=QQ: lambda_product(
                   builtin_algebra("sl2", field), 1).validate(),
               expect_tags=(TAG_SCALAR,), forbid_tags=(TAG_ZERO,),
               expect_complete=False),
    )


def all_entries():
    return classification_dim2_entries() + example_entries()


def get_entry(entry_id):
    for entry in all_entries():
        if entry.entry_id == entry_id:
            return entry
    raise ParameterError("no catalog entry %r" % (entry_id,))


def case4_raw_family(which, alpha1, coeff, field=QQ):
    """The two raw solution families on matched r2 brackets, before any
    normalizing change of basis.

    Family "first": e2.e1 = (1 - alpha1) e1, e2.e2 = coeff e1.
    Family "second": e1.e2 = -e1, e2.e1 = -alpha1 e1, e2.e2 = coeff e1.
    Both require alpha1 nonzero (it scales the g-bracket).
    """
    a1 = field.scalar(alpha1)
    c = field.scalar(coeff)
    _check_nonzero(a1, "alpha1", "case4_raw_family")
    if which == "first":
        table = {(1, 0): {0: 1 - a1}, (1, 1): {0: c}}
    elif which == "second":
        table = {(0, 1): {0: -1}, (1, 0): {0: -a1}, (1, 1): {0: c}}
    else:
        raise ParameterError("family must be 'first' or 'second'")
    return _pair(field, {(0, 1): {0: a1}}, {(0, 1): {0: 1}}, table,
                 g_name="r2", n_name="r2",
                 name="case4_%s(%s,%s)" % (which, a1, c))


@dataclass(frozen=True)
class Case4Normalization:
    """Result of normalizing a raw family member into catalog form."""

    entry_id: str
    params: dict
    automorphism: Matrix
    raw: PostLiePair
    normalized: PostLiePair


def normalize_case4(which, alpha1, coeff, field=QQ):
    """Find the n-automorphism carrying a raw family member onto its
    catalog representative, apply it, and confirm the landing point.

    The automorphisms of the n-bracket fixing the table shape are
    e1 -> t e1, e2 -> s e1 + e2 with t invertible; membership in the
    catalog decides t and s case by case.
    """
    raw = case4_raw_family(which, alpha1, coeff, field=field)
    a1 = field.scalar(alpha1)
    c = field.scalar(coeff)
    one = field.one
    zero = field.zero
    if which == "first":
        if a1 != 1:
            t, s = one, c / (a1 - 1)
            entry_id, params = "V14", {"alpha1": a1}
        elif c != 0:
            t, s = c, zero
            entry_id, params = "V15", {}
        else:
            t, s = one, zero
            entry_id, params = "V14", {"alpha1": field.one}
    else:
        if a1 != -1:
            t, s = one, c / (1 + a1)
            entry_id, params = "V16", {"alpha1": a1}
        elif c != 0:
            t, s = c, zero
            entry_id, params = "V17", {}
        else:
            t, s = one, zero
            entry_id, params = "V16", {"alpha1": field.scalar(-1)}
    T = Matrix(field, [[t, s], [0, 1]])
    moved_product = raw.product.change_basis(T)
    moved_g = raw.g.change_basis(T)
    moved_n = raw.n.change_basis(T)
    normalized = PostLiePair(moved_g, moved_n, moved_product).validate()
    target = get_entry(entry_id).build_sample(params, field=field)
    if (normalized.product != target.product
            or normalized.g != target.g or normalized.n != target.n):
        raise ParameterError("internal error: normalization landed off "
                             "the catalog representative")
    return Case4Normalization(entry_id, params, T, raw, normalized)
