"""Lie algebras given by exact structure constants, with the standard
structural toolkit: center, derived and lower central series, Killing
form, derivation algebra, semidirect sums, and a small-dimension
classifier.

Brackets are stored sparsely for i < j only, in a `linalg.SparseTable`
as products are; [e_i, e_i] = 0 and the i > j values follow by
antisymmetry, so they never appear in tables.
Analysis routines insist on `validate()` having run, which scans the
Jacobi identity over all basis triples and records the first failing
triple when the table is not a Lie algebra at all.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import isqrt

from .errors import (DimensionError, FieldMismatchError, NotValidatedError,
                     StructureError, UnsupportedFieldError)
from .linalg import (Matrix, SparseTable, accumulate, as_vector,
                     basis_change_table, common_denominator, commutator,
                     contract, coordinates_in_span, coordinates_in_span_many,
                     echelon, from_ints, kernel_rows, nest_left,
                     nest_right, rank, raw_ints, raw_terms, raw_vector,
                     unit_vector, vzero)
from .report import CheckReport, scan_item


class LieAlgebra(SparseTable):
    """A finite-dimensional Lie algebra over Q or F_p.

    A `SparseTable` on the keys i < j, whose `table` is `brackets`.
    `_memo` holds invariants computed once on the validated table (see
    `series`, `killing_is_semisimple` and `classify_low_dim`); the table
    never changes after construction, so they stay valid.
    """

    __slots__ = ("name", "_validated", "_memo")

    def __init__(self, field, dim, brackets=None, name=None):
        if dim < 0:
            raise DimensionError("negative dimension")
        super().__init__(field, dim, brackets)
        self._named(name)

    @classmethod
    def _from_canonical(cls, field, dim, raw, name=None):
        return super()._from_canonical(field, dim, raw)._named(name)

    def _named(self, name):
        self.name = name
        self._validated = False
        self._memo = {}
        return self

    @staticmethod
    def _check_key(i, j, dim):
        if not (0 <= i < j < dim):
            raise DimensionError(
                "bracket key (%r, %r) must satisfy 0 <= i < j < %d" % (i, j, dim))

    @property
    def brackets(self):
        """{(i, j): [e_i, e_j]} for i < j, as field scalars (`table`)."""
        return self.table

    @property
    def validated(self):
        return self._validated

    def bracket_basis(self, i, j):
        """[e_i, e_j] for any index pair, antisymmetry applied."""
        if i == j:
            return vzero(self.field, self.dim)
        if i < j:
            return self.table.get((i, j), vzero(self.field, self.dim))
        vec = self.table.get((j, i))
        return vzero(self.field, self.dim) if vec is None else tuple(-a for a in vec)

    def terms(self):
        """The sparse slot table of the bracket, both orders (see
        `SparseTable.terms`), read off `raw` once: the (j, i) slots are
        the negated (i, j) ones, reduced."""
        if self._terms is None:
            terms = raw_terms(self.raw)
            p = self.field.p
            for (i, j), vec in list(terms.items()):
                terms[(j, i)] = tuple([(k, -v if p is None else p - v)
                                       for k, v in vec])
            self._terms = terms
        return self._terms

    def bracket(self, x, y):
        """Bilinear extension of the basis table, evaluated on the supports
        of x and y; either operand of the wrong length raises
        DimensionError."""
        return contract(self.field, self.dim, self.terms(), x, y)

    def adjoint_matrix(self, x):
        """ad(x): v -> [x, v] as a matrix acting on coordinate columns."""
        cols = []
        for j in range(self.dim):
            e_j = unit_vector(self.field, self.dim, j)
            cols.append(self.bracket(x, e_j))
        return Matrix.from_cols(self.field, cols)

    def is_abelian(self):
        return not self.raw

    def validate(self):
        """Scan the Jacobi identity once (tables never change after
        construction); mark the algebra usable on success."""
        if self._validated:
            return self
        report = check_lie_axioms(self)
        if not report.passed:
            raise StructureError(
                "bracket table is not a Lie algebra (%s)" %
                report.failures()[0].describe(), report)
        self._validated = True
        return self

    def change_basis(self, T):
        """The same algebra written in the basis T e_1, ..., T e_n; a
        singular T raises DimensionError."""
        moved = basis_change_table(self.field, self.dim, self.terms(), T)
        out = LieAlgebra._from_canonical(
            self.field, self.dim,
            {key: vec for key, vec in moved.items() if key[0] < key[1]},
            name=self.name)
        out._validated = self._validated
        return out

    def __repr__(self):
        label = self.name or "LieAlgebra"
        return "%s(dim=%d, %s)" % (label, self.dim, self.field.name)


def _require_validated(L):
    if not L.validated:
        raise NotValidatedError(
            "run validate() before analysing %r" % (L,))


def cyclic_sum(acc, outer, inner, sign, x, y, z):
    """Add sign times outer(inner(x,y), e_z) + outer(inner(y,z), e_x) +
    outer(inner(z,x), e_y) into `acc`, three `nest_left` terms: the cyclic
    sum of the Jacobi identity, for the sparse slot tables `outer` and
    `inner` and a sign of 1 or -1."""
    nest_left(acc, outer, inner, sign, x, y, z)
    nest_left(acc, outer, inner, sign, y, z, x)
    nest_left(acc, outer, inner, sign, z, x, y)


def derivation_action(N, P):
    """Delta of x.{y,z} = {x.y, z} + {y, x.z} on basis triples, for the
    bracket N and the product P, of degree 2 in the tables (see
    `scan_item`).

    At x = e_0 of the one-slot table of a matrix D (see `operator_table`)
    it is D{y,z} - {Dy, z} - {y, Dz}, the derivation condition on D."""

    def delta(acc, idx):
        i, j, k = idx
        nest_right(acc, P, N, 1, i, j, k)
        nest_left(acc, N, P, -1, i, j, k)
        nest_right(acc, N, P, -1, j, i, k)
    return delta


def operator_table(M, scale=1):
    """The sparse slot table of the product x.v = x_0 (M v): slot (0, c)
    holds column c of the integer form of M (see `Matrix.int_form`) times
    `scale`.  So `nest_right` at i = 0 applies M to the inner term, scaled
    by the form's denominator and `scale`."""
    ints, _ = M.int_form()
    cols = [ints[c::M.ncols] for c in range(M.ncols)]
    return {(0, c): tuple([(r, v * scale) for r, v in enumerate(col) if v])
            for c, col in enumerate(cols)}


def check_lie_axioms(L):
    """Jacobi identity over all basis triples i < j < k.

    Antisymmetry is structural (only i < j is stored), so the single
    computed item is the Jacobi scan; it carries the first failing triple.
    The scan sums ints: the table is scaled by its denominator d, and the
    identity, of degree 2, by d**2 (see `scan_item`).
    """
    n = L.dim
    d = common_denominator(L)
    B = L.scaled_terms(d)

    def jacobi(acc, idx):
        cyclic_sum(acc, B, B, 1, *idx)

    triples = [(i, j, k) for i in range(n) for j in range(i + 1, n)
               for k in range(j + 1, n)]
    item = scan_item("jacobi", L.field, n, triples, jacobi, d * d)
    return CheckReport("lie axioms (%s)" % (L.name or "bracket table"), (item,))


@dataclass(frozen=True)
class Subspace:
    """A subspace of field^ambient, kept as the int rows and pivots of its
    `linalg.echelon`, which are unique to it.  `basis`, the canonical RREF
    basis of field scalars, is built from them when it is first read."""

    field: object
    ambient: int
    rows: tuple
    pivots: tuple

    @classmethod
    def span(cls, field, ambient, vectors):
        return cls(field, ambient, *echelon(field.p, [
            raw_vector(field, as_vector(field, ambient, v)) for v in vectors]))

    @cached_property
    def basis(self):
        return tuple(tuple(from_ints(self.field, row, row[c]))
                     for row, c in zip(self.rows, self.pivots))

    @property
    def dim(self):
        return len(self.rows)

    def contains(self, v):
        return self.coordinates(v) is not None

    def coordinates(self, v):
        return coordinates_in_span(list(self.basis), v, self.field)


def center(L):
    """Elements bracketing to zero with the whole algebra: the kernel of
    x -> ([x, e_j])_j on the table scaled to ints, spanned on int rows."""
    _require_validated(L)
    n, p = L.dim, L.field.p
    # row j * n + k: x -> [x, e_j]_k, one column per basis vector e_i
    rows = [[0] * n for _ in range(n * n)]
    for (i, j), vec in L.scaled_terms().items():
        for k, v in vec:
            rows[j * n + k][i] = v
    return Subspace(L.field, n, *echelon(p, kernel_rows(p, rows, n)[0]))


def image_chain(field, dim, terms, inner=False):
    """The descending chain W_0 = field^dim, W_{t+1} = span{B(x, w)}, as
    subspaces, for the bilinear map B whose sparse slot table is `terms`
    (see `SparseTable.terms`): w runs over the basis of W_t, and x over
    the unit vectors, or with `inner` over the basis vectors before w.
    `inner` is valid for antisymmetric tables only, such as a bracket's,
    where B(w, x) = -B(x, w) and B(w, w) = 0.

    The chain stops at its first repeat, and a zero term is included when
    reached.  Each W_{t+1} lies in W_t (by induction from W_1 in W_0), so
    the dimensions fall strictly until then.  On a bracket table this is
    the lower central series, and with `inner` the derived series.

    With unit vectors, W_t is the span of the images of all words of
    length t in the operators B(e_i, .).  So the chain reaches 0 exactly
    when every product of dim such operators vanishes.  The terms are
    kept on the int rows of `Subspace`, multiples of their basis.
    """
    units = [((k, 1),) for k in range(dim)]
    eye = tuple(tuple([int(k == i) for k in range(dim)]) for i in range(dim))
    current = Subspace(field, dim, eye, tuple(range(dim)))
    chain = [current]
    while current.dim:
        basis = [[(k, v) for k, v in enumerate(row) if v]
                 for row in current.rows]
        images = []
        for a, x in enumerate(basis if inner else units):
            for w in basis[a + 1:] if inner else basis:
                acc = [0] * dim
                accumulate(acc, terms, x, w)
                if any(acc):
                    images.append(acc)
        nxt = Subspace(field, dim, *echelon(field.p, images))
        if nxt.dim == current.dim:
            break
        chain.append(nxt)
        current = nxt
    return tuple(chain)


def series(L, kind="derived"):
    """Derived or lower central series, as subspaces, until stabilization:
    the `image_chain` of the bracket scaled to ints (which changes no
    span), whose `inner` form is the derived series.  Kept in the memo."""
    _require_validated(L)
    if kind not in ("derived", "lower-central"):
        raise ValueError("kind must be 'derived' or 'lower-central'")
    if kind not in L._memo:
        L._memo[kind] = image_chain(L.field, L.dim, L.scaled_terms(),
                                    inner=kind == "derived")
    return L._memo[kind]


def is_solvable(L):
    return series(L, "derived")[-1].dim == 0


def is_nilpotent(L):
    return series(L, "lower-central")[-1].dim == 0


def nilpotency_class(L):
    """Length of the lower central series when it reaches zero, else None."""
    chain = series(L, "lower-central")
    if chain[-1].dim != 0:
        return None
    return len(chain) - 1


def is_perfect(L):
    """[L, L] = L: the derived series repeats at once."""
    return len(series(L, "derived")) == 1


def killing_is_semisimple(L):
    """Killing form matrix and its nondegeneracy.

    kappa(x, y) = trace(ad x ad y).  Nondegeneracy of kappa characterizes
    semisimplicity in characteristic zero only, so this refuses F_p input.

    No matrix product is formed: with [e_i, e_k] = sum_l c_ik^l e_l,
    (ad e_i)_lk = c_ik^l, so kappa(e_i, e_j) = sum_{k,l} c_ik^l c_jl^k,
    summed on the table scaled to ints by its denominator d and divided
    by d**2 once per entry.
    """
    _require_validated(L)
    if not L.field.is_rational:
        raise UnsupportedFieldError(
            "the Killing criterion is only conclusive over Q")
    if "killing" not in L._memo:
        n = L.dim
        d = L.denominator()
        # ads[i][(l, k)] = d * c_ik^l, the nonzero entries of d * ad e_i
        ads = [{} for _ in range(n)]
        for (i, k), vec in L.scaled_terms(d).items():
            for l, c in vec:
                ads[i][(l, k)] = c
        kappa = {}
        for i in range(n):
            for j in range(i, n):
                get = ads[j].get
                kappa[(i, j)] = kappa[(j, i)] = sum(
                    [c * get((k, l), 0) for (l, k), c in ads[i].items()])
        form = Matrix._from_ints(L.field, n, n, [kappa[(i, j)]
                                                 for i in range(n)
                                                 for j in range(n)], d * d)
        # the rank is kept for `classify_low_dim`
        L._memo["killing"] = (form, rank(form))
    form, r = L._memo["killing"]
    return form, r == L.dim


def is_derivation(L, D):
    """Does D satisfy D[x,y] = [Dx,y] + [x,Dy] on all basis pairs?

    That is derivation-action for the product x.y = x_0 D y (see
    `operator_table`), at x = e_0.  Both sides are linear in D and in the
    bracket, so the test runs on the integer form of D and the bracket
    table scaled to ints (see `SparseTable.scaled_terms`)."""
    n = L.dim
    if D.shape != (n, n):
        raise DimensionError("derivation candidate of shape %r on dim %d" %
                             (D.shape, n))
    if D.field != L.field:
        raise FieldMismatchError("derivation candidate over %s for an "
                                 "algebra over %s" % (D.field.name,
                                                      L.field.name))
    delta = derivation_action(L.scaled_terms(), operator_table(D))
    return scan_item(None, L.field, n, _derivation_triples(n), delta).passed


def _derivation_triples(n):
    """The triples (0, j, k), j < k, on which `is_derivation` scans."""
    return [(0, j, k) for j in range(n) for k in range(j + 1, n)]


@dataclass(frozen=True)
class DerivationAlgebra:
    """Basis of Der(L) inside gl(dim), in canonical nullspace order."""

    base: LieAlgebra
    basis: tuple

    @property
    def dim(self):
        return len(self.basis)

    def contains(self, M):
        return self.coordinates(M) is not None

    def coordinates(self, M):
        flats = [D.flat() for D in self.basis]
        return coordinates_in_span(flats, M.flat(), self.base.field)


def derivation_algebra(L):
    """Solve the derivation equations exactly and return a basis.

    Unknowns are the entries d[r][c] of D, flattened row major.  The
    equations are the coordinates of the derivation residual (see
    `is_derivation`), which is linear in D: column r * n + c of the system
    is the residual at the unit matrix with d[r][c] = 1, one row per basis
    pair and output component.  Every returned matrix is re-checked
    against the bracket.
    """
    _require_validated(L)
    n = L.dim
    triples = _derivation_triples(n)
    N = L.scaled_terms()
    cols = []
    for r in range(n):
        for c in range(n):
            delta = derivation_action(N, {(0, c): ((r, 1),)})
            col = []
            for idx in triples:
                acc = [0] * n
                delta(acc, idx)
                col += acc
            cols.append(col)
    kern, l = kernel_rows(L.field.p, list(zip(*cols)), n * n)
    basis = []
    for flat in kern:
        D = Matrix._from_canonical(L.field, n, n, raw_ints(L.field, flat, l))
        if not is_derivation(L, D):
            raise StructureError("internal error: derivation solver produced "
                                 "a non-derivation")
        basis.append(D)
    return DerivationAlgebra(L, tuple(basis))


def is_complete_lie(L):
    """Trivial center and every derivation inner."""
    _require_validated(L)
    if center(L).dim != 0:
        return False
    return derivation_algebra(L).dim == L.dim


def semidirect_with_derivations(L, derivations, name=None):
    """The semidirect sum of L with a subalgebra of its derivations.

    Basis: the n basis vectors of L followed by the given derivations.
    Bracket: [(x, D), (x', D')] = ([x, x'] + D x' - D' x, [D, D']).
    The derivation list must be linearly independent and closed under the
    matrix commutator.  Each entry is checked with `is_derivation`, the
    list for independence and the sum by its Jacobi scan, unless the list
    is the `DerivationAlgebra` of L itself: `derivation_algebra` has
    checked its basis already, a nullspace basis is independent by
    construction, and the closure solved here makes the sum Lie.
    """
    _require_validated(L)
    checked = False
    if isinstance(derivations, DerivationAlgebra):
        checked = derivations.base is L
        derivations = derivations.basis
    derivations = list(derivations)
    n = L.dim
    k = len(derivations)
    for t, D in enumerate(derivations):
        if not checked and not is_derivation(L, D):
            raise StructureError("entry %d is not a derivation" % t)
    flats = [D.raw_flat() for D in derivations]
    if k and not checked and rank(Matrix(L.field, flats)) != k:
        raise StructureError("derivation list is linearly dependent")
    table = {key: vec + (0,) * k for key, vec in L.raw.items()}
    for t, D in enumerate(derivations):
        raw = D.raw_flat()
        for i in range(n):
            # [e_i, D] = -D(e_i) inside the L block
            table[(i, n + t)] = [-v for v in raw[i::n]] + [0] * k
    pairs = [(s, t) for s in range(k) for t in range(s + 1, k)]
    solved = coordinates_in_span_many(
        flats, [commutator(derivations[s], derivations[t]).raw_flat()
                for s, t in pairs], L.field)
    for (s, t), coords in zip(pairs, solved):
        if coords is None:
            raise StructureError(
                "derivation span is not closed under the commutator "
                "(entries %d, %d)" % (s, t))
        table[(n + s, n + t)] = [0] * n + raw_vector(L.field, coords)
    out = LieAlgebra.from_raw(
        L.field, n + k, table,
        name=name or "semidirect(%s, der%d)" % (L.name or "L", k))
    out._validated = checked
    return out.validate()


def direct_sum(L1, L2, name=None):
    """Block-diagonal direct sum of two algebras over one field."""
    if L1.field != L2.field:
        raise FieldMismatchError("direct sum over %s and %s" %
                                 (L1.field.name, L2.field.name))
    _require_validated(L1)
    _require_validated(L2)
    n1, n2 = L1.dim, L2.dim
    table = {key: vec + (0,) * n2 for key, vec in L1.raw.items()}
    for (i, j), vec in L2.raw.items():
        table[(n1 + i, n1 + j)] = (0,) * n1 + vec
    out = LieAlgebra.from_raw(
        L1.field, n1 + n2, table,
        name=name or "sum(%s, %s)" % (L1.name or "a", L2.name or "b"))
    return out.validate()


@dataclass(frozen=True)
class Classification:
    """Invariant data for algebras of dimension at most three over Q.

    `name` is one of abelian, r2, n3, r3, r3_lambda, sl2, or None when the
    isomorphism type is not rational (the eigenvalue ratio of the split
    torus action is irrational or complex).  `ratio_set` lists the ratio
    pair {lam, 1/lam} when rational, `(0,)` for the degenerate product
    r2 + abelian(1), and `(1,)` for both r3 and r3_lambda(1); the two are
    told apart by `action_semisimple`.  `ratio_invariant` is trace^2/det
    of the action on the two-dimensional derived algebra, a basis-free
    rational invariant that exists even when the ratio itself does not.
    """

    dim: int
    name: str | None
    derived_dim: int
    center_dim: int
    killing_rank: int
    solvable: bool
    nilpotent: bool
    nilpotency_class: int | None
    perfect: bool
    ratio_set: tuple | None
    ratio_invariant: Fraction | None
    action_semisimple: bool | None

    def fingerprint(self):
        return (self.dim, self.derived_dim, self.center_dim, self.killing_rank,
                self.solvable, self.nilpotent, self.nilpotency_class,
                self.perfect, self.ratio_set, self.ratio_invariant,
                self.action_semisimple)


def _rational_sqrt(q):
    """Exact square root of a nonnegative rational, or None."""
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn != num or rd * rd != den:
        return None
    return Fraction(rn, rd)


def classify_low_dim(L):
    """Isomorphism type of a validated algebra of dimension <= 3 over Q."""
    _require_validated(L)
    if not L.field.is_rational:
        raise UnsupportedFieldError("classification is implemented over Q only")
    if L.dim > 3:
        raise DimensionError("classification supports dimension <= 3")
    if "classification" not in L._memo:
        L._memo["classification"] = _classify(L)
    return L._memo["classification"]


def _classify(L):
    n = L.dim
    # each series once; is_solvable, is_nilpotent and nilpotency_class
    # read the same ends
    derived = series(L, "derived")
    lower = series(L, "lower-central")
    # a length-one chain means [L, L] = L (the series repeats immediately)
    derived_dim = derived[1].dim if len(derived) > 1 else n
    cent = center(L)
    killing_is_semisimple(L)
    killing_rank = L._memo["killing"][1]
    solvable = derived[-1].dim == 0
    nilpotent = lower[-1].dim == 0
    nclass = len(lower) - 1 if nilpotent else None
    perfect = is_perfect(L)

    name = None
    ratio_set = None
    ratio_invariant = None
    action_semisimple = None

    if derived_dim == 0:
        name = "abelian"
    elif n == 2:
        name = "r2"
    elif perfect:
        # dim 3, perfect: the split simple algebra (Killing rank must be 3)
        name = "sl2"
        if killing_rank != 3:
            raise StructureError("internal error: perfect dim-3 algebra with "
                                 "degenerate Killing form")
    elif nilpotent:
        name = "n3"
    elif derived_dim == 1:
        # r2 + abelian(1): one-dimensional derived algebra, not nilpotent
        name = "r3_lambda"
        ratio_set = (Fraction(0),)
        action_semisimple = True
    else:
        # solvable with two-dimensional abelian derived algebra; classify by
        # the action of a complement generator on [L, L]
        basis = derived[1].basis
        x_index = next(i for i in range(n)
                       if not derived[1].contains(unit_vector(L.field, n, i)))
        e_x = unit_vector(L.field, n, x_index)
        cols = []
        for b in basis:
            coords = derived[1].coordinates(L.bracket(e_x, b))
            if coords is None:
                raise StructureError("internal error: derived algebra is not "
                                     "an ideal")
            cols.append(coords)
        M = Matrix.from_cols(L.field, cols)
        tr = M.trace()
        det = M.entry(0, 0) * M.entry(1, 1) - M.entry(0, 1) * M.entry(1, 0)
        if det == 0:
            raise StructureError("internal error: complement acts singularly "
                                 "on a two-dimensional derived algebra")
        ratio_invariant = Fraction(tr) * Fraction(tr) / Fraction(det)
        disc_char = tr * tr - 4 * det
        scalar = (M.entry(0, 1) == 0 and M.entry(1, 0) == 0
                  and M.entry(0, 0) == M.entry(1, 1))
        action_semisimple = disc_char != 0 or scalar
        if disc_char == 0:
            ratio_set = (Fraction(1),)
            name = "r3_lambda" if scalar else "r3"
        else:
            # eigenvalue ratio lam solves lam^2 - (k - 2) lam + 1 = 0 with
            # k = trace^2/det; rational exactly when k(k - 4) is a square
            k = ratio_invariant
            root = _rational_sqrt(k * (k - 4))
            if root is not None:
                lam1 = (k - 2 + root) / 2
                lam2 = (k - 2 - root) / 2
                ratio_set = tuple(sorted({lam1, lam2}))
                name = "r3_lambda"

    return Classification(
        dim=n, name=name, derived_dim=derived_dim, center_dim=cent.dim,
        killing_rank=killing_rank, solvable=solvable, nilpotent=nilpotent,
        nilpotency_class=nclass, perfect=perfect, ratio_set=ratio_set,
        ratio_invariant=ratio_invariant, action_semisimple=action_semisimple)
