"""Post-Lie products on a pair of Lie algebras sharing one vector space.

A pair (g, n, .) is a bilinear product x.y on the underlying space of two
bracket tables [,] (for g) and {,} (for n) satisfying three identities:

  skew-part          x.y - y.x = [x,y] - {x,y}
  module-action      [x,y].z = x.(y.z) - y.(x.z)
  derivation-action  x.{y,z} = {x.y, z} + {y, x.z}

Equivalently, (V, ., {,}) is a post-Lie algebra whose associated bracket
x.y - y.x + {x,y} recovers [,].  All three maps are `linalg.SparseTable`s
of structure constants on the one space: `LieAlgebra` on the slots i < j,
`BilinearProduct` on every slot.  Checkers report one item per identity and
the first failing basis tuple with the difference of the two sides; they
never stop at the first broken identity, so a bad table shows everything
that is wrong with it at once.
"""

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (DimensionError, FieldMismatchError, NotValidatedError,
                     StructureError, UnsupportedFieldError)
from .lie import (DerivationAlgebra, LieAlgebra, center, check_lie_axioms,
                  cyclic_sum, derivation_action, derivation_algebra,
                  direct_sum, image_chain, is_complete_lie, is_derivation,
                  is_nilpotent, is_solvable, is_perfect,
                  killing_is_semisimple, nilpotency_class, operator_table,
                  semidirect_with_derivations, classify_low_dim)
from .linalg import (Matrix, SparseTable, accumulate, basis_change_table,
                     commutator, common_denominator, contract,
                     coordinates_in_span_many, integral_form, inverse,
                     is_nilpotent_int, raw_terms, raw_vector, sparse_units,
                     unit_vector, vadd, vsub, vzero)
from .report import CheckItem, CheckReport, scan_item


class BilinearProduct(SparseTable):
    """A bilinear product: a `SparseTable` on every slot (i, j), e_i . e_j."""

    __slots__ = ()

    @staticmethod
    def _check_key(i, j, dim):
        if not (0 <= i < dim and 0 <= j < dim):
            raise DimensionError(
                "product key (%r, %r) outside 0..%d" % (i, j, dim - 1))

    @classmethod
    def zero(cls, field, dim):
        return cls(field, dim, {})

    def product_basis(self, i, j):
        return self.table.get((i, j), vzero(self.field, self.dim))

    def product(self, x, y):
        """Bilinear extension of the table, evaluated on the supports of x
        and y; either operand of the wrong length raises DimensionError."""
        return contract(self.field, self.dim, self.terms(), x, y)

    def left_matrix_basis(self, i):
        """The operator L(e_i): v -> e_i . v."""
        return Matrix.from_cols(self.field,
                                [self.product_basis(i, j) for j in range(self.dim)])

    def is_zero(self):
        return not self.raw

    def change_basis(self, T, Tinv=None):
        """The same product in the basis T e_1, ..., T e_n.  `Tinv` is the
        inverse of T when the caller already holds it (see
        `basis_change_table`, whose table is canonical already); a
        singular T raises DimensionError."""
        return BilinearProduct._from_canonical(
            self.field, self.dim,
            basis_change_table(self.field, self.dim, self.terms(), T, Tinv))

    def __repr__(self):
        return "BilinearProduct(dim=%d, %s, %d nonzero pairs)" % (
            self.dim, self.field.name, len(self.raw))


def scalar_multiple(L, lam):
    """The product x.y = lam [x,y] on the space of L: lam [e_i, e_j] on
    the slot (i, j) and -lam [e_i, e_j] on (j, i), for i < j."""
    field = L.field
    lam = field.raw(lam)
    table = {}
    for (i, j), vec in L.raw.items():
        table[(i, j)] = [lam * a for a in vec]
        table[(j, i)] = [-lam * a for a in vec]
    return BilinearProduct.from_raw(field, L.dim, table)


class PostLiePair:
    """Two bracket tables and one product on a shared space."""

    __slots__ = ("g", "n", "product", "name", "_validated")

    def __init__(self, g, n, product, name=None):
        if not (g.dim == n.dim == product.dim):
            raise DimensionError("pair components of dimensions %d, %d, %d" %
                                 (g.dim, n.dim, product.dim))
        if not (g.field == n.field == product.field):
            raise FieldMismatchError("pair components over %s, %s, %s" %
                                     (g.field.name, n.field.name,
                                      product.field.name))
        self.g = g
        self.n = n
        self.product = product
        self.name = name
        self._validated = False

    @property
    def field(self):
        return self.g.field

    @property
    def dim(self):
        return self.g.dim

    @property
    def validated(self):
        return self._validated

    def validate(self):
        self.g.validate()
        self.n.validate()
        report = check_structure(self.g, self.n, self.product)
        if not report.passed:
            raise StructureError(
                "not a post-Lie structure (%s)" %
                "; ".join(it.describe() for it in report.failures()), report)
        self._validated = True
        return self

    def full_report(self):
        """The Jacobi scans of g and n (items prefixed "g." and "n.") and
        the pair identities, as one report.  A passing report marks the
        pair and both tables validated, so `validate` does not scan again.
        """
        report = CheckReport(
            "pair" if self.name is None else self.name,
            check_lie_axioms(self.g).prefixed("g.").items
            + check_lie_axioms(self.n).prefixed("n.").items
            + check_structure(self.g, self.n, self.product).items)
        if report.passed:
            self.g._validated = self.n._validated = self._validated = True
        return report

    def __repr__(self):
        label = self.name or "PostLiePair"
        return "%s(dim=%d, %s)" % (label, self.dim, self.field.name)


def _require_validated_pair(pair):
    if not pair.validated:
        raise NotValidatedError("run validate() before analysing %r" % (pair,))


@lru_cache(maxsize=64)
def _pairs(n):
    return tuple((i, j) for i in range(n) for j in range(i + 1, n))


@lru_cache(maxsize=64)
def _triples_pair_any(n):
    return tuple((i, j, k) for i in range(n) for j in range(i + 1, n)
                 for k in range(n))


@lru_cache(maxsize=64)
def _triples_any_pair(n):
    return tuple((i, j, k) for i in range(n) for j in range(n)
                 for k in range(j + 1, n))


@lru_cache(maxsize=64)
def _triples_all(n):
    return tuple((i, j, k) for i in range(n) for j in range(n)
                 for k in range(n))


# The identity scans below work on raw values (see `Field.raw`).  Each
# delta starts from int zeros and adds every term of the identity; in the
# comments x, y, z stand for basis vectors, P for the product table and
# G, N for the bracket tables of g and n.  In the deltas of the defining
# identities every term has a basis vector as an operand, so it is read
# off the slots with no call to `accumulate`: T(v, e_k) = sum_s v_s
# T(e_s, e_k) from T.get((s, k)), and T(e_k, v) likewise from
# T.get((k, s)).  The derived identities further down still contract
# through `accumulate`, with e and m the unit vectors and their
# negatives.  Over Q the tables of one scan are scaled to ints by their
# common denominator d (see `linalg.common_denominator`), so every sum is
# an int sum; an identity of degree k in the tables is then d**k times
# itself, and `scan_item` divides the witness's discrepancy back by d**k.
# Derivation-action and the Jacobi cyclic sum live in `lie`
# (`derivation_action`, `cyclic_sum`), which reads them too.


def _scaled(d, *tables):
    """The sparse slot tables of `tables`, each scaled by d."""
    return [t.scaled_terms(d) for t in tables]


def _module_action(dim, G, P):
    """Delta of [x,y].z = x.(y.z) - y.(x.z) on basis triples, of degree 2
    in the tables."""

    def delta(i, j, k):
        acc = [0] * dim
        for s, a in G.get((i, j), ()):
            for t, v in P.get((s, k), ()):
                acc[t] += a * v
        for s, a in P.get((j, k), ()):
            for t, v in P.get((i, s), ()):
                acc[t] -= a * v
        for s, a in P.get((i, k), ()):
            for t, v in P.get((j, s), ()):
                acc[t] += a * v
        return acc
    return delta


def _skew_part(dim, G, N, P):
    """Delta of x.y - y.x = [x,y] - {x,y} on basis pairs, of degree 1 in
    the tables.  With G empty the delta is the induced bracket
    x.y - y.x + {x,y}."""

    def delta(i, j):
        acc = [0] * dim
        for t, v in P.get((i, j), ()):
            acc[t] += v
        for t, v in P.get((j, i), ()):
            acc[t] -= v
        for t, v in G.get((i, j), ()):
            acc[t] -= v
        for t, v in N.get((i, j), ()):
            acc[t] += v
        return acc
    return delta


def _associator_skew(dim, N, P):
    """Delta of {x,y}.z = (y.x).z - y.(x.z) - (x.y).z + x.(y.z), of
    degree 2 in the tables."""

    def delta(i, j, k):
        acc = [0] * dim
        for s, a in N.get((i, j), ()):
            for t, v in P.get((s, k), ()):
                acc[t] += a * v
        for s, a in P.get((j, i), ()):
            for t, v in P.get((s, k), ()):
                acc[t] -= a * v
        for s, a in P.get((i, j), ()):
            for t, v in P.get((s, k), ()):
                acc[t] += a * v
        for s, a in P.get((i, k), ()):
            for t, v in P.get((j, s), ()):
                acc[t] += a * v
        for s, a in P.get((j, k), ()):
            for t, v in P.get((i, s), ()):
                acc[t] -= a * v
        return acc
    return delta


def check_structure(g, n, product):
    """Scan the three defining identities of a pair structure."""
    field, dim = g.field, g.dim
    d = common_denominator(g, n, product)
    G, N, P = _scaled(d, g, n, product)
    items = (
        scan_item("skew-part", field, _pairs(dim),
                  _skew_part(dim, G, N, P), d),
        scan_item("module-action", field, _triples_pair_any(dim),
                  _module_action(dim, G, P), d * d),
        scan_item("derivation-action", field, _triples_any_pair(dim),
                  derivation_action(dim, N, P), d * d),
    )
    return CheckReport("post-Lie structure", items)


def check_algebra(product, n):
    """Scan the post-Lie algebra identities of (V, ., {,}) alone.

    Here the bracket {,} is the one carried by `n`; no second bracket is
    assumed.  The two computed identities say that the bracket acts by the
    antisymmetrized associator and that left multiplications are bracket
    derivations.
    """
    field, dim = n.field, n.dim
    jacobi = check_lie_axioms(n).item("jacobi")
    jacobi = CheckItem("bracket-jacobi", jacobi.passed, jacobi.witness,
                       jacobi.discrepancy)
    d = common_denominator(n, product)
    N, P = _scaled(d, n, product)
    items = (
        jacobi,
        scan_item("associator-skew", field, _triples_pair_any(dim),
                  _associator_skew(dim, N, P), d * d),
        scan_item("derivation-action", field, _triples_any_pair(dim),
                  derivation_action(dim, N, P), d * d),
    )
    return CheckReport("post-Lie algebra", items)


def induced_bracket(product, n, name=None):
    """The unvalidated bracket table x.y - y.x + {x,y}."""
    field, dim = n.field, n.dim
    delta = _skew_part(dim, {}, n.terms(), product.terms())
    return LieAlgebra.from_raw(
        field, dim, {(i, j): delta(i, j) for i, j in _pairs(dim)}, name=name)


def phi_product(n, phi):
    """The product x.y = {phi(x), y} for an endomorphism phi of n."""
    field, dim = n.field, n.dim
    N = n.terms()
    flat = phi.raw_flat()
    # the columns phi(e_i) in operand form, straight off the raw entries
    columns = raw_terms({i: flat[i::dim] for i in range(dim)})
    table = {}
    for i in range(dim):
        x = columns.get(i, ())
        for j in range(dim):
            acc = [0] * dim
            for s, a in x:
                for t, v in N.get((s, j), ()):
                    acc[t] += a * v
            table[(i, j)] = acc
    return BilinearProduct.from_raw(field, dim, table)


def pair_from_phi(n, phi):
    """The pair with product x.y = {phi x, y} and the induced first
    bracket, validated.

    When phi is not a hit, validation raises StructureError, and its
    `report` is the Jacobi scan of the induced bracket when that fails,
    else the pair identities with the first failing tuple of each.  On a
    complete n every structure has this shape, and
    `endomorphism_from_structure` is the inverse.
    """
    if phi.shape != (n.dim, n.dim):
        raise DimensionError("endomorphism shape %r on dimension %d" %
                             (phi.shape, n.dim))
    product = phi_product(n, phi)
    return PostLiePair(induced_bracket(product, n), n, product).validate()


def associated_bracket(product, n, name=None):
    """The bracket x.y - y.x + {x,y}, as a validated Lie algebra.

    Requires (V, ., {,}) to pass `check_algebra`; the associated table then
    satisfies Jacobi automatically, and validation double-checks that.
    """
    report = check_algebra(product, n)
    if not report.passed:
        raise StructureError(
            "product is not post-Lie over this bracket (%s)" %
            "; ".join(it.describe() for it in report.failures()), report)
    return induced_bracket(product, n, name=name or "associated").validate()


def derived_identity_audit(pair):
    """Recheck six consequences of the pair axioms on all basis tuples.

    All of these follow from the defining identities, so a validated pair
    can only fail the audit through an implementation fault; on raw pairs
    the audit doubles as a fine-grained diagnostic.  Every item is of
    degree 2 in the tables.  Items:

      module-action          [x,y].z = x.(y.z) - y.(x.z)
      associator-skew        {x,y}.z = (y.x).z - y.(x.z) - (x.y).z + x.(y.z)
      right-slot-expansion   z.[x,y] = z.(x.y) - z.(y.x) + z.{x,y}
      mixed-rearrangement    [x.y,z] + [y,x.z] - x.[y,z] =
                             (x.y).z - (x.z).y + y.(x.z) - x.(y.z)
                             + x.(z.y) - z.(x.y)
      cyclic-left-action     x.{y,z} + y.{z,x} + z.{x,y} =
                             {[x,y],z} + {[y,z],x} + {[z,x],y}
      cyclic-product-action  {x,y}.z + {y,z}.x + {z,x}.y =
                             {[x,y],z} + {[y,z],x} + {[z,x],y}
                             + [{x,y},z] + [{y,z},x] + [{z,x},y]
    """
    g, n, product = pair.g, pair.n, pair.product
    dim = pair.dim
    field = pair.field
    d = common_denominator(g, n, product)
    G, N, P = _scaled(d, g, n, product)
    e, m = sparse_units(field, dim)

    def right_slot(z, i, j):
        # z.[x,y] - z.(x.y) + z.(y.x) - z.{x,y}
        acc = [0] * dim
        accumulate(acc, P, e[z], G.get((i, j), ()))
        accumulate(acc, P, m[z], P.get((i, j), ()))
        accumulate(acc, P, e[z], P.get((j, i), ()))
        accumulate(acc, P, m[z], N.get((i, j), ()))
        return acc

    def mixed(x, y, z):
        pxy = P.get((x, y), ())
        pxz = P.get((x, z), ())
        acc = [0] * dim
        # the left side [x.y,z] + [y,x.z] - x.[y,z]
        accumulate(acc, G, pxy, e[z])
        accumulate(acc, G, e[y], pxz)
        accumulate(acc, P, m[x], G.get((y, z), ()))
        # minus the right side
        accumulate(acc, P, pxy, m[z])
        accumulate(acc, P, pxz, e[y])
        accumulate(acc, P, m[y], pxz)
        accumulate(acc, P, e[x], P.get((y, z), ()))
        accumulate(acc, P, m[x], P.get((z, y), ()))
        accumulate(acc, P, e[z], pxy)
        return acc

    def cyclic_left(x, y, z):
        acc = [0] * dim
        accumulate(acc, P, e[x], N.get((y, z), ()))
        accumulate(acc, P, e[y], N.get((z, x), ()))
        accumulate(acc, P, e[z], N.get((x, y), ()))
        cyclic_sum(acc, N, G, -1, x, y, z)
        return acc

    def cyclic_product(x, y, z):
        acc = [0] * dim
        cyclic_sum(acc, P, N, 1, x, y, z)
        cyclic_sum(acc, N, G, -1, x, y, z)
        cyclic_sum(acc, G, N, -1, x, y, z)
        return acc

    dd = d * d
    items = (
        scan_item("module-action", field, _triples_pair_any(dim),
                  _module_action(dim, G, P), dd),
        scan_item("associator-skew", field, _triples_pair_any(dim),
                  _associator_skew(dim, N, P), dd),
        scan_item("right-slot-expansion", field, _triples_any_pair(dim),
                  right_slot, dd),
        scan_item("mixed-rearrangement", field, _triples_all(dim), mixed,
                  dd),
        scan_item("cyclic-left-action", field, _triples_all(dim),
                  cyclic_left, dd),
        scan_item("cyclic-product-action", field, _triples_all(dim),
                  cyclic_product, dd),
    )
    return CheckReport("derived identities", items)


def left_mult_matrix(pair, x):
    """L(x): v -> x . v.  On a validated pair x -> L(x) is a g-representation
    by derivations of n; that is exactly the module-action and
    derivation-action identities, so no extra checking happens here."""
    return _combination(pair.field, pair.dim, left_multiplications(pair), x)


def _combination(field, dim, mats, coeffs):
    """The dim x dim operator sum_t coeffs[t] mats[t]."""
    out = Matrix.zeros(field, dim, dim)
    for c, M in zip(coeffs, mats, strict=True):
        if c != 0:
            out = out + M.scale(c)
    return out


def left_multiplications(pair):
    """The operators L(e_1), ..., L(e_n)."""
    _require_validated_pair(pair)
    return tuple(pair.product.left_matrix_basis(i) for i in range(pair.dim))


def is_complete_structure(pair):
    """Are all left multiplications L(x) nilpotent?

    Decided exactly over any field by the `image_chain` of the basis
    operators L(e_i): its term W_t is the span of the images of all words
    of length t in the L(e_i), so it reaches 0 exactly when every product
    of dim of them vanishes.  That forces L(x)^dim = 0 for every x, by
    multilinearity.  Conversely, module-action makes {L(x)} a Lie algebra
    of linear maps, so when all L(x) are nilpotent Engel's theorem makes
    them simultaneously strictly triangular, and every word of length dim
    vanishes.  No eigenvalues are involved, so this holds in any
    characteristic.
    """
    _require_validated_pair(pair)
    return image_chain(pair.field, pair.dim,
                       pair.product.scaled_terms())[-1].dim == 0


def all_right_multiplications_nilpotent(pair):
    """Are all right multiplications R(x) nilpotent?

    The mirror image of `is_complete_structure`: the same chain on the
    transposed slots, whose operators B(e_j, .) are the R(e_j);
    informational, not the structure completeness.  A True answer forces
    R(x)^dim = 0 for every x; {R(x)} need not be a Lie algebra, so the
    Engel converse of the left case is not available.  When n is abelian the
    product is pre-Lie, and this is Segal's completeness of that pre-Lie
    algebra.  V9 at alpha = 0 is complete in this sense only.
    """
    _require_validated_pair(pair)
    right = {(j, i): vec
             for (i, j), vec in pair.product.scaled_terms().items()}
    return image_chain(pair.field, pair.dim, right)[-1].dim == 0


def sampled_left_mult_nilpotency(pair, samples=50, seed=0):
    """Nilpotency of L(x) at pseudorandom x; a cross-check of the exact
    completeness decision, not a substitute for it.

    The test runs on ints (see `linalg.is_nilpotent_int`).  Over GF(p)
    the x_t are residues and the L(e_t) their residues, with every power
    reduced mod p.  Over Q the x_t are drawn as n_t/d_t: a nonzero
    multiple of L(x) is nilpotent exactly when L(x) is, so the L(e_t) are
    scaled by the lcm of all their denominators and each x by the lcm of
    its d_t."""
    rng = random.Random(seed)
    dim, p = pair.dim, pair.field.p
    size = dim * dim
    flat = [v for M in left_multiplications(pair) for v in M.raw_flat()]
    if p is None:
        flat = integral_form(flat)[0]
    basis = [flat[t * size:(t + 1) * size] for t in range(dim)]
    modulus = () if p is None else (p,)
    for _ in range(samples):
        if p is None:
            draws = [(rng.randint(-9, 9), rng.randint(1, 9))
                     for _ in range(dim)]
            d = lcm(*[den for _, den in draws])
            x = [num * (d // den) for num, den in draws]
        else:
            x = [rng.randrange(p) for _ in range(dim)]
        M = [0] * size
        for c, L in zip(x, basis):
            if c:
                M = [a + c * b for a, b in zip(M, L)]
        if not is_nilpotent_int(M, dim, *modulus):
            return False
    return True


TAG_ZERO = "zero"
TAG_PRE_LIE = "pre-lie"
TAG_LR_PAIR = "lr"
TAG_COMMUTATIVE = "commutative"
TAG_SCALAR = "scalar-multiple"
TAG_LSA = "left-symmetric"
TAG_LR_IDENTITY = "lr-identity"
TAG_NOVIKOV = "novikov"
TAG_CYCLIC = "cyclic-symmetric"


@dataclass(frozen=True)
class SpecialCases:
    """Tags naming the special shapes a validated structure falls into."""

    tags: frozenset
    scalar_ratio: object = None

    def has(self, tag):
        return tag in self.tags


def special_case_detect(pair):
    """Detect zero, pre-Lie, LR, commutative, scalar-multiple, and the raw
    product identities (left-symmetric, LR, Novikov, cyclic-symmetric)."""
    _require_validated_pair(pair)
    g, n, product = pair.g, pair.n, pair.product
    dim = pair.dim
    tags = set()
    if product.is_zero():
        tags.add(TAG_ZERO)
    if n.is_abelian():
        tags.add(TAG_PRE_LIE)
    if g.is_abelian():
        tags.add(TAG_LR_PAIR)
    if all(product.product_basis(i, j) == product.product_basis(j, i)
           for i, j in _pairs(dim)):
        tags.add(TAG_COMMUTATIVE)

    scalar_ratio = _scalar_ratio(g, product)
    if scalar_ratio is not None:
        tags.add(TAG_SCALAR)

    field = pair.field
    # only the pass flags are read, so the scaled table needs no divisor
    P = product.scaled_terms()
    e, m = sparse_units(field, dim)

    def holds(tuples, delta):
        return scan_item(None, field, tuples, delta).passed

    def right_comm_delta(i, j, k):
        # (x.y).z - (x.z).y
        acc = [0] * dim
        accumulate(acc, P, P.get((i, j), ()), e[k])
        accumulate(acc, P, P.get((i, k), ()), m[j])
        return acc

    def cyclic_delta(x, y, z):
        # x.(y.z) + y.(x.z) + z.(x.y) - (y.z).x - (x.z).y - (x.y).z
        acc = [0] * dim
        accumulate(acc, P, e[x], P.get((y, z), ()))
        accumulate(acc, P, e[y], P.get((x, z), ()))
        accumulate(acc, P, e[z], P.get((x, y), ()))
        accumulate(acc, P, P.get((y, z), ()), m[x])
        accumulate(acc, P, P.get((x, z), ()), m[y])
        accumulate(acc, P, P.get((x, y), ()), m[z])
        return acc

    # left-symmetry and left-commutativity are associator-skew and
    # module-action with the brackets set to zero
    lsa = holds(_triples_pair_any(dim), _associator_skew(dim, {}, P))
    left_comm = holds(_triples_pair_any(dim),
                      _module_action(dim, {}, P))
    right_comm = holds(_triples_any_pair(dim), right_comm_delta)
    cyclic = holds(_triples_all(dim), cyclic_delta)

    if lsa:
        tags.add(TAG_LSA)
    if left_comm and right_comm:
        tags.add(TAG_LR_IDENTITY)
    if lsa and right_comm:
        tags.add(TAG_NOVIKOV)
    if cyclic:
        tags.add(TAG_CYCLIC)
    return SpecialCases(frozenset(tags), scalar_ratio)


def _scalar_ratio(g, product):
    """The scalar lam with x.y = lam [x,y] everywhere, or None.

    lam is read off the first nonzero structure constant of g, and is 0
    when g is abelian, where only the zero product is a scalar multiple;
    any other nonzero constant gives the same lam on a scalar multiple."""
    lam = g.field.zero
    if g.raw:
        (i, j), vec = next(iter(g.table.items()))
        k = next(k for k, a in enumerate(vec) if a)
        lam = product.product_basis(i, j)[k] / vec[k]
    return lam if scalar_multiple(g, lam) == product else None


def endomorphism_from_structure(pair):
    """Recover phi with x.y = {phi(x), y} from a structure on a complete n.

    Each L(e_i) is a derivation of n; completeness makes every derivation
    inner and the adjoint map injective, so L(e_i) = ad(v_i) has exactly
    one solution and phi is the matrix sending e_i to v_i.
    """
    _require_validated_pair(pair)
    n = pair.n
    if not is_complete_lie(n):
        raise StructureError("phi is only determined when n is complete")
    phi = Matrix.from_cols(pair.field, _inner_derivation_vectors(pair))
    if phi_product(n, phi) != pair.product:
        raise StructureError("internal error: recovered phi does not "
                             "reproduce the product")
    return phi


def _left_coordinates(pair, span, what):
    """The coordinates of each L(e_i) in the span of the matrices `span`;
    `what` names the span for the internal error raised on a miss."""
    solved = coordinates_in_span_many(
        [M.flat() for M in span],
        [pair.product.left_matrix_basis(i).flat()
         for i in range(pair.dim)], pair.field)
    if any(coords is None for coords in solved):
        raise StructureError("internal error: left multiplication is "
                             "not " + what)
    return solved


def _inner_derivation_vectors(pair):
    """The vectors v_i with L(e_i) = ad(v_i) in n, one per basis index."""
    n = pair.n
    ads = [n.adjoint_matrix(unit_vector(pair.field, pair.dim, t))
           for t in range(pair.dim)]
    return _left_coordinates(pair, ads, "an inner derivation")


@dataclass(frozen=True)
class Embedding:
    """A structure realized as a graph inside n semidirect Der(n)."""

    semidirect: LieAlgebra
    derivations: DerivationAlgebra
    images: tuple
    matrix: Matrix
    report: CheckReport

    @property
    def passed(self):
        return self.report.passed

    def graph_elements(self):
        """The images as (vector in n, derivation matrix) pairs, the shape
        structure_from_graph_subalgebra consumes for the inverse direction."""
        base = self.derivations.base
        return tuple((vec[:base.dim],
                      _combination(base.field, base.dim,
                                   self.derivations.basis, vec[base.dim:]))
                     for vec in self.images)


def embed_semidirect(pair):
    """Send e_i to (e_i, L(e_i)) inside n semidirect Der(n) and verify that
    this is a homomorphism from g onto a subalgebra projecting bijectively
    to the first factor."""
    _require_validated_pair(pair)
    n = pair.n
    dim = pair.dim
    field = pair.field
    ders = derivation_algebra(n)
    # ders is n's own derivation algebra, checked once by its solver
    ambient = semidirect_with_derivations(n, ders)
    solved = _left_coordinates(pair, ders.basis, "a derivation of n")
    images = [unit_vector(field, dim, i) + coords
              for i, coords in enumerate(solved)]
    matrix = Matrix.from_cols(field, images)
    # on ints: the images (the columns of the matrix), the bracket of g
    # and that of the ambient algebra all scaled by one d, so that the
    # identity, of degree 2 on the left and 3 on the right, reads d**3
    _, dm = matrix.int_form()
    d = lcm(dm, common_denominator(pair.g, ambient))
    G, A = _scaled(d, pair.g, ambient)
    size = ambient.dim
    M = operator_table(matrix, d // dm)
    img = [M[(0, i)] for i in range(dim)]
    neg = [[(t, -v) for t, v in vec] for vec in img]
    x = ((0, d),)

    def hom(i, j):
        # M [e_i, e_j] - [M e_i, M e_j], with M e_k the k-th image
        acc = [0] * size
        accumulate(acc, M, x, G.get((i, j), ()))
        accumulate(acc, A, neg[i], img[j])
        return acc

    items = (scan_item("homomorphism", field, _pairs(dim), hom, d ** 3),)
    report = CheckReport("semidirect embedding", items)
    return Embedding(ambient, ders, tuple(images), matrix, report)


def structure_from_graph_subalgebra(n, elements, name=None):
    """Build the pair structure carried by a graph-like subalgebra.

    `elements` lists dim(n) pairs (x_t, D_t) spanning a subspace h of
    n semidirect Der(n).  Requirements checked here: every D_t is a
    derivation, the first components form a basis (the projection to n is
    bijective on h), and h is closed under the semidirect bracket.  The
    product is then e_i . e_j = D(e_i) applied to e_j, where D is the
    derivation component matched to e_i through the projection, and the
    first-component bracket of h is the induced g.  Inverse to
    `embed_semidirect`: feeding the (e_i, L(e_i)) graph back in returns
    the original g and product.
    """
    n.validate()
    dim = n.dim
    field = n.field
    elements = list(elements)
    if len(elements) != dim:
        raise DimensionError("need exactly %d spanning pairs, got %d" %
                             (dim, len(elements)))
    for t, (x_t, D_t) in enumerate(elements):
        if not is_derivation(n, D_t):
            raise StructureError("entry %d: matrix is not a derivation" % t)
    X = Matrix.from_cols(field, [x for x, _ in elements])
    Xinv = inverse(X)
    if Xinv is None:
        raise StructureError("projection to n is not bijective on the span")
    flats = [tuple(x) + D.flat() for x, D in elements]
    pairs = _pairs(dim)
    targets = []
    for a, b in pairs:
        x_a, D_a = elements[a]
        x_b, D_b = elements[b]
        first = vadd(n.bracket(x_a, x_b),
                     vsub(D_a.apply(x_b), D_b.apply(x_a)))
        targets.append(tuple(first) + commutator(D_a, D_b).flat())
    for (a, b), coords in zip(pairs,
                              coordinates_in_span_many(flats, targets, field)):
        if coords is None:
            raise StructureError("span is not closed under the "
                                 "semidirect bracket (entries %d, %d)"
                                 % (a, b))
    # L(e_i) = sum_t Xinv[t][i] D_t  (the derivation attached to e_i)
    left = [_combination(field, dim, [D for _, D in elements], Xinv.col(i))
            for i in range(dim)]
    table = {}
    for i in range(dim):
        for j in range(dim):
            table[(i, j)] = left[i].col(j)
    product = BilinearProduct(field, dim, table)
    g = induced_bracket(product, n, name=name or "graph-induced")
    return PostLiePair(g, n, product, name=name).validate()


@dataclass(frozen=True)
class SplitEmbedding:
    """A copy of g complementing the diagonal inside n + n."""

    ambient: LieAlgebra
    basis: tuple
    report: CheckReport

    @property
    def passed(self):
        return self.report.passed


def split_semisimple(pair):
    """For semisimple n, realize g inside n + n transversal to the diagonal.

    Completeness of semisimple algebras turns each L(e_i) into ad(v_i);
    the vectors w_i = (e_i + v_i, v_i) then span a subalgebra of n + n
    whose bracket constants in the w-basis equal those of g, and the
    difference of the two components maps it bijectively back to n's
    underlying space.  Only defined over Q (the Killing test is the
    semisimplicity gate).
    """
    _require_validated_pair(pair)
    n = pair.n
    if not n.field.is_rational:
        raise UnsupportedFieldError("the semisimple split is gated on the "
                                    "Killing criterion, which needs Q")
    if not killing_is_semisimple(n)[1]:
        raise StructureError("n is not semisimple (degenerate Killing form)")
    dim = pair.dim
    field = pair.field
    vs = _inner_derivation_vectors(pair)
    ambient = direct_sum(n, n, name="double")
    basis = []
    for i in range(dim):
        e_i = unit_vector(field, dim, i)
        basis.append(vadd(e_i, vs[i]) + vs[i])

    # every bracket of the basis, placed in its span by one elimination
    got = {key: ambient.bracket(basis[key[0]], basis[key[1]])
           for key in _pairs(dim)}
    coords = dict(zip(got, coordinates_in_span_many(basis, list(got.values()),
                                                    field)))

    def closure(i, j):
        if coords[(i, j)] is None:
            # not even inside the span: report the full vector
            return raw_vector(field, got[(i, j)])
        return raw_vector(field, vsub(coords[(i, j)],
                                      pair.g.bracket_basis(i, j)))

    def difference_map(i, j):
        # (p1 - p2) w_i = e_i by construction; verified honestly
        del j
        w = basis[i]
        diff = vsub(w[:dim], w[dim:])
        return raw_vector(field, vsub(diff, unit_vector(field, dim, i)))

    items = (
        scan_item("subalgebra-matches-g", field, _pairs(dim), closure),
        scan_item("difference-map-bijective", field,
                  [(i, i) for i in range(dim)], difference_map),
    )
    report = CheckReport("semisimple split", items)
    return SplitEmbedding(ambient, tuple(basis), report)


def prelie_from_two_step(pair):
    """The deformation x o y = x.y + (1/2){x,y} on a class <= 2 pair.

    Refuses characteristic 2.  Returns the new product together with a
    report checking that o is commutator-compatible with g and satisfies
    the pre-Lie (left-symmetry) identity with respect to g.
    """
    _require_validated_pair(pair)
    n = pair.n
    if pair.field.characteristic == 2:
        raise UnsupportedFieldError("the deformation needs 1/2, so "
                                    "characteristic 2 is out")
    cls = nilpotency_class(n)
    if cls is None or cls > 2:
        raise StructureError("n must be nilpotent of class at most 2")
    dim = pair.dim
    field = pair.field
    half = field.raw(field.scalar(Fraction(1, 2)))
    N, P = n.terms(), pair.product.terms()
    e, _ = sparse_units(field, dim)
    table = {}
    for i in range(dim):
        for j in range(dim):
            acc = [0] * dim
            accumulate(acc, P, e[i], e[j])
            accumulate(acc, N, ((i, half),), e[j])
            table[(i, j)] = acc
    prelie = BilinearProduct.from_raw(field, dim, table)
    d = common_denominator(pair.g, prelie)
    G, O = _scaled(d, pair.g, prelie)
    # o is commutator-compatible with g when skew-part holds for o with
    # no second bracket, and left-symmetric when module-action does
    items = (
        scan_item("commutator-matches-bracket", field, _pairs(dim),
                  _skew_part(dim, G, {}, O), d),
        scan_item("left-symmetry", field, _triples_pair_any(dim),
                  _module_action(dim, G, O), d * d),
    )
    return prelie, CheckReport("pre-Lie deformation", items)


CONSISTENT = "CONSISTENT"
VIOLATION = "VIOLATION"
NOT_APPLICABLE = "NOT_APPLICABLE"


@dataclass(frozen=True)
class TheoremFinding:
    name: str
    status: str
    detail: str = ""

    def as_dict(self):
        return {"name": self.name, "status": self.status, "detail": self.detail}


@dataclass(frozen=True)
class TheoremAudit:
    """Cross-checks of structural theorems against one concrete pair.

    Over F_p the hypotheses are evaluated with characteristic-p notions
    (perfectness instead of the Killing criterion), so findings are
    advisory there: the statements are theorems over characteristic zero.
    """

    findings: tuple
    advisory: bool

    @property
    def consistent(self):
        return all(f.status != VIOLATION for f in self.findings)

    def finding(self, name):
        for f in self.findings:
            if f.name == name:
                return f
        raise KeyError(name)

    def as_dict(self):
        return {"advisory": self.advisory, "consistent": self.consistent,
                "findings": [f.as_dict() for f in self.findings]}


def _verdict(name, hypothesis, conclusion, detail=""):
    if not hypothesis:
        return TheoremFinding(name, NOT_APPLICABLE, detail)
    return TheoremFinding(name, CONSISTENT if conclusion else VIOLATION, detail)


def theorem_audit(pair):
    """Evaluate the structural theorems that constrain which (g, n) can
    carry a structure, on this validated pair."""
    _require_validated_pair(pair)
    g, n = pair.g, pair.n
    rational = pair.field.is_rational
    findings = []

    findings.append(_verdict(
        "nilpotent-g-gives-solvable-n",
        is_nilpotent(g), is_solvable(n)))

    findings.append(_verdict(
        "solvable-nonnilpotent-n-gives-imperfect-g",
        is_solvable(n) and not is_nilpotent(n), not is_perfect(g)))

    cls = nilpotency_class(n)
    two_step = cls is not None and cls <= 2
    if two_step and pair.field.characteristic == 2:
        findings.append(TheoremFinding("two-step-n-gives-prelie-g",
                                       NOT_APPLICABLE, "needs 1/2"))
        findings.append(TheoremFinding("two-step-n-gives-nonsemisimple-g",
                                       NOT_APPLICABLE, "needs 1/2"))
    else:
        if two_step:
            _, deform = prelie_from_two_step(pair)
            findings.append(_verdict("two-step-n-gives-prelie-g", True,
                                     deform.passed))
        else:
            findings.append(TheoremFinding("two-step-n-gives-prelie-g",
                                           NOT_APPLICABLE))
        if two_step and rational:
            findings.append(_verdict(
                "two-step-n-gives-nonsemisimple-g", True,
                not killing_is_semisimple(g)[1]))
        else:
            findings.append(TheoremFinding(
                "two-step-n-gives-nonsemisimple-g", NOT_APPLICABLE,
                "" if two_step is False else "Killing test needs Q"))

    if pair.dim == 3:
        if rational:
            g_simple = classify_low_dim(g).name == "sl2"
            n_simple = classify_low_dim(n).name == "sl2"
            proxy = ""
        else:
            g_simple = is_perfect(g) and center(g).dim == 0
            n_simple = is_perfect(n) and center(n).dim == 0
            proxy = "perfect-and-centerless proxy"
        findings.append(_verdict("simple-g-gives-simple-n",
                                 g_simple, n_simple, proxy))
        trivial = pair.product.is_zero() or (
            pair.product == scalar_multiple(g, 1)
            and all(n.bracket_basis(i, j) ==
                    tuple(-a for a in g.bracket_basis(i, j))
                    for i, j in _pairs(3)))
        findings.append(_verdict("simple-pair-trivial-product",
                                 g_simple and n_simple, trivial, proxy))
    else:
        findings.append(TheoremFinding("simple-g-gives-simple-n",
                                       NOT_APPLICABLE, "dimension 3 only"))
        findings.append(TheoremFinding("simple-pair-trivial-product",
                                       NOT_APPLICABLE, "dimension 3 only"))

    return TheoremAudit(tuple(findings), advisory=not rational)
