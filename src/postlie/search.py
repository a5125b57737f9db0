"""Exhaustive finite-field searches for structure products.

Everything here works over GF(p) for a small prime p and hands the inner
loops to the numpy kernels of `fpkernel`.  They take prime moduli only,
return no hits outside a sweep's index range, and raise ValueError on a
phi sweep whose bracket is not a Lie bracket mod p.
Index conventions are the kernel's: a candidate is the big-endian base-p
digit string of its index, read row-major into the object being swept.

Sweeps are exhaustive over the chosen prime field, so a zero hit count
is a theorem about GF(p) and nothing more; results that feed into
rational-case reasoning carry an explicit evidence banner saying so.
"""

import dataclasses
import os
from dataclasses import dataclass
from functools import cached_property

from . import fpkernel
from .errors import (GuardError, ParameterError, StructureError,
                     UnsupportedFieldError)
from .fields import GF
from .lie import (LieAlgebra, center, is_complete_lie, is_nilpotent,
                  is_perfect, is_solvable)
from .linalg import Matrix, accumulate, kernel_rows, nest_right
from .report import scan_item
from .structures import BilinearProduct, check_structure, pair_from_phi

GUARD_ENV = "POSTLIE_GUARD"
DEFAULT_GUARD = 10_000_000

BANNER = ("characteristic-p evidence: exhaustive over GF(%d) only, "
          "not a characteristic-zero proof")


def current_guard():
    raw = os.environ.get(GUARD_ENV)
    if raw is None:
        return DEFAULT_GUARD
    try:
        value = int(raw)
    except ValueError:
        raise GuardError("%s must be an integer, got %r" % (GUARD_ENV, raw))
    if value < 1:
        raise GuardError("%s must be positive, got %d" % (GUARD_ENV, value))
    return value


def check_guard(total):
    limit = current_guard()
    if total > limit:
        raise GuardError(
            "sweep size %d exceeds the guard %d; raise the %s environment "
            "variable to allow it" % (total, limit, GUARD_ENV))
    return total


def _kernel_disagrees(index):
    """The error of a kernel hit that fails its exact re-verification."""
    return GuardError("kernel hit %d failed exact re-verification; kernel "
                      "and checker disagree" % index)


def _require_sweep_dim(dim):
    """The kernels sweep dimensions 1..3 only."""
    if not 1 <= dim <= 3:
        raise ParameterError("sweeps support dimensions 1..3, got %d" % dim)


def _require_prime_field(field):
    if field.is_rational:
        raise UnsupportedFieldError(
            "exhaustive sweeps need a finite field, not Q")
    return field.p


def flat_bracket_tensor(table):
    """Row-major n^3 int list of a bracket table or product over GF(p),
    read off the residues of its sparse slot table (see
    `SparseTable.terms`)."""
    n = table.dim
    flat = [0] * n ** 3
    for (i, j), vec in table.terms().items():
        for k, v in vec:
            flat[(i * n + j) * n + k] = v
    return flat


@dataclass(frozen=True)
class SearchSpec:
    """A fixed bracket pair to sweep products over.

    `symmetric` selects the candidate parametrization: True enumerates
    only the slots e_j . e_i with i <= j and derives the rest from the
    skew-part identity (p^(n*n*(n+1)/2) candidates), False enumerates raw
    tensors (p^(n^3)).
    """

    g: LieAlgebra
    n: LieAlgebra
    symmetric: bool = True

    def __post_init__(self):
        if self.g.field != self.n.field:
            raise ParameterError("bracket tables live over different fields")
        if self.g.dim != self.n.dim:
            raise ParameterError("bracket tables have different dimensions")
        _require_prime_field(self.g.field)
        self.g.validate()
        self.n.validate()

    @property
    def p(self):
        return self.g.field.p

    @property
    def dim(self):
        return self.g.dim

    @property
    def digit_count(self):
        n = self.dim
        return n * n * (n + 1) // 2 if self.symmetric else n ** 3

    @property
    def total(self):
        return self.p ** self.digit_count

    @cached_property
    def digit_slots(self):
        """The slots a sweep index spells, in digit order: (j, i) for
        i <= j in symmetric mode, every (i, j) row-major in full mode."""
        n = range(self.dim)
        if self.symmetric:
            return tuple((j, i) for i in n for j in n if i <= j)
        return tuple((i, j) for i in n for j in n)

    @cached_property
    def slot_layout(self):
        """(key, q, gap) for every slot (i, j), in key order: the slot's
        digits start at digit q of an index, and gap is the bracket gap
        that the symmetric parametrization adds to them, or None where it
        adds nothing (every slot in full mode, and every gap that is
        zero)."""
        n = self.dim
        start = {key: q * n for q, key in enumerate(self.digit_slots)}
        layout = []
        for i in range(n):
            for j in range(n):
                if self.symmetric and i < j:
                    gap = self.bracket_gap[(i, j)]
                    layout.append(((i, j), start[(j, i)],
                                   gap if any(gap) else None))
                else:
                    layout.append(((i, j), start[(i, j)], None))
        return tuple(layout)

    @cached_property
    def bracket_gap(self):
        """{(i, j): residues of [e_i, e_j] - {e_i, e_j}} for i < j, each
        reduced, computed once per spec: the skew part that the symmetric
        parametrization forces on the slot (i, j) over the slot (j, i)."""
        p, n = self.p, range(self.dim)
        zero = (0,) * self.dim
        g, h = self.g.raw, self.n.raw
        return {(i, j): tuple([(a - b) % p for a, b in
                               zip(g.get((i, j), zero), h.get((i, j), zero))])
                for i in n for j in n if i < j}


def _index_digits(index, p, k):
    """The k base-p digits of a sweep index, most significant first; an
    index outside 0..p^k - 1 raises ParameterError instead of wrapping."""
    if not 0 <= index < p ** k:
        raise ParameterError("index %d is outside the sweep range 0..%d"
                             % (index, p ** k - 1))
    digits = [0] * k
    for t in range(k - 1, -1, -1):
        index, digits[t] = divmod(index, p)
    return digits


def decode_product(spec, index):
    """The candidate product of a sweep index, as an exact table; an index
    outside 0..spec.total - 1 raises ParameterError.

    The digits are residues in 0..p-1 already, so the product's `raw` is
    built from them directly, in key order (see `SearchSpec.slot_layout`);
    only a slot shifted by a nonzero bracket gap is reduced."""
    n, p = spec.dim, spec.p
    digits = _index_digits(index, p, spec.digit_count)
    raw = {}
    for key, q, gap in spec.slot_layout:
        vec = digits[q:q + n]
        if gap is not None:
            vec = [(a + d) % p for a, d in zip(vec, gap)]
        if any(vec):
            raw[key] = tuple(vec)
    return BilinearProduct._from_canonical(spec.g.field, n, raw)


def encode_product(spec, product):
    """Inverse of decode_product, read off the reduced residues of
    `product.raw`; rejects tensors the parametrization cannot reach: a
    product over another field or of another dimension, or a
    symmetric-mode product whose skew part is off."""
    n = spec.dim
    p = spec.p
    mode = "symmetric" if spec.symmetric else "full"
    if product.field != spec.g.field or product.dim != n:
        raise ParameterError(
            "product is outside the %s parametrization; it is not a "
            "dimension-%d product over %s" % (mode, n, spec.g.field.name))
    raw = product.raw
    zero = (0,) * n
    if spec.symmetric:
        for (i, j), _, gap in spec.slot_layout:
            if i < j:
                low = raw.get((j, i), zero)
                if gap is not None:
                    low = tuple([(a + d) % p for a, d in zip(low, gap)])
                if raw.get((i, j), zero) != low:
                    raise ParameterError(
                        "product is outside the symmetric parametrization; "
                        "its skew part does not match the bracket gap")
    index = 0
    for key in spec.digit_slots:
        for a in raw.get(key, zero):
            index = index * p + a
    return index


def _backend_name(kernel):
    """A kernel's `BACKEND`, or the `NAME` of a bare backend object."""
    return getattr(kernel, "BACKEND", getattr(kernel, "NAME", "?"))


@dataclass(frozen=True)
class EnumerationResult:
    spec: SearchSpec
    indices: tuple
    total: int
    backend: str

    def products(self):
        return tuple(decode_product(self.spec, i) for i in self.indices)


def enumerate_products(spec, kernel=None):
    """All structure products on spec's bracket pair, by exhaustion.

    Every kernel hit is decoded and re-verified through the exact
    field-arithmetic checker before being reported, so a kernel encoding
    bug cannot produce a silent false positive.

    The guard counts the solutions of the sweep's linear system, the
    candidates it tests (`fpkernel.product_solution_count`), and
    `total` stays the whole box.  The sweep builds tensors for only
    c + 1 of each p^c of them and tests all p^c by one affine test per
    prefix (see `fpkernel.product_sweep`); the guard counts every
    candidate tested.  The count is read from `fpkernel` itself, since
    a `kernel` passed in need only have the sweeps.
    """
    if kernel is None:
        kernel = fpkernel
    _require_sweep_dim(spec.dim)
    total = spec.total
    cg = flat_bracket_tensor(spec.g)
    cn = flat_bracket_tensor(spec.n)
    check_guard(fpkernel.product_solution_count(spec.p, spec.dim, cg, cn,
                                                spec.symmetric))
    raw = kernel.product_sweep(spec.p, spec.dim, cg, cn, spec.symmetric,
                               0, total)
    hits = []
    for index in raw:
        product = decode_product(spec, index)
        report = check_structure(spec.g, spec.n, product)
        if not report.passed:
            raise _kernel_disagrees(index)
        hits.append(index)
    return EnumerationResult(spec=spec, indices=tuple(hits), total=total,
                             backend=_backend_name(kernel))


def decode_matrix(field, dim, index):
    """The matrix of a sweep index over GF(p), whose raw values are the
    digits (residues already); a field of characteristic 0 raises
    UnsupportedFieldError, an index outside 0..p^(dim^2) - 1
    ParameterError."""
    digits = _index_digits(index, _require_prime_field(field), dim * dim)
    return Matrix._from_canonical(field, dim, dim, digits)


def encode_matrix(mat):
    """Inverse of decode_matrix: the entries' residues, row by row, read
    as base-p digits by Horner's rule.  A matrix over Q raises
    UnsupportedFieldError, a non-square one ParameterError."""
    p = _require_prime_field(mat.field)
    if mat.nrows != mat.ncols:
        raise ParameterError("sweep matrices are square, got shape %r"
                             % (mat.shape,))
    index = 0
    for d in mat.raw_flat():
        index = index * p + d
    return index


@dataclass(frozen=True)
class PhiSweepResult:
    n: LieAlgebra
    indices: tuple
    total: int
    backend: str
    # the validated pair of each hit, in the order of `indices`
    pairs: tuple = dataclasses.field(default=(), compare=False, repr=False)


def phi_ansatz_sweep(n_alg, kernel=None):
    """Sweep every phi in End(V) with product x.y = {phi x, y}.

    A hit is a phi whose induced skew bracket x.y - y.x + {x,y} satisfies
    Jacobi and whose product passes the structure identities against that
    bracket.  n must be a Lie algebra (it is validated first): then
    skew-part holds by construction, derivation-action is the Jacobi
    identity of n, and module-action gives Jacobi of the induced bracket,
    so module-action alone decides a hit.  That is all the kernel tests,
    and in dimension 3 it first solves module-action on (e1, e2) for
    phi e3 modulo the centre of n, so it masks only the solutions.  Every
    hit is re-verified here in exact arithmetic by building its pair
    with `pair_from_phi`, once for each coset of Hom(V, Z(n)): the hits
    of one coset share one product and one pair.  `total` stays the
    whole box p^(n^2).  The guard checks that box first.  Only when the
    box is over it, and in dimension 3, it checks the p^(n(n-1))
    prefixes, which refuses fast, and then the candidates the solve
    builds (`fpkernel.phi_candidate_count`), read from `fpkernel` itself
    as in `enumerate_products`.  When the second table is complete
    (all derivations inner, trivial center) every structure product has
    this shape, so the sweep is exhaustive over all structures with the
    given n, not merely over an ansatz.
    """
    if kernel is None:
        kernel = fpkernel
    p = _require_prime_field(n_alg.field)
    n_alg.validate()
    n = n_alg.dim
    _require_sweep_dim(n)
    total = p ** (n * n)
    cn = flat_bracket_tensor(n_alg)
    if n == 3 and total > current_guard():
        check_guard(p ** (n * (n - 1)))
        check_guard(fpkernel.phi_candidate_count(p, n, cn))
    else:
        check_guard(total)
    raw = kernel.phi_sweep(p, n, cn, 0, total)
    # phi and phi + psi give one product when psi maps V into Z(n), since
    # {psi x, y} = 0; psi does exactly when A psi = 0 for the annihilator
    # rows A of Z(n).  So the hits are keyed by A phi, and one pair is
    # validated per key.  With no centre every hit is its own key.
    centre = center(n_alg)
    # over GF(p) the rows of `kernel_rows` are residues, with l = 1
    ann = kernel_rows(p, list(centre.rows), n)[0] if centre.dim else None
    cosets = {}
    pairs = []
    for index in raw:
        key = index
        if ann is not None:
            phi = _index_digits(index, p, n * n)
            key = tuple([sum([a * phi[r * n + i] for r, a in enumerate(row)])
                         % p for row in ann for i in range(n)])
        if key not in cosets:
            try:
                cosets[key] = pair_from_phi(
                    n_alg, decode_matrix(n_alg.field, n, index))
            except StructureError as exc:
                raise _kernel_disagrees(index) from exc
        pairs.append(cosets[key])
    return PhiSweepResult(n=n_alg, indices=tuple(raw), total=total,
                          backend=_backend_name(kernel),
                          pairs=tuple(pairs))


def automorphism_indices(algebras, kernel=None):
    """Indices of the invertible matrices preserving every bracket table
    in `algebras` (their common automorphism group).

    The guard counts the candidates the sweep tests
    (`fpkernel.automorphism_candidate_count`), read from `fpkernel`
    itself as in `enumerate_products`, and the sweep range stays the
    whole box.  Every kernel hit T is re-verified exactly, on residues:
    [T e_i, T e_j] = T [e_i, e_j] for all i < j, once for each distinct
    nonzero table; a zero table is preserved by every T, so it is not
    scanned.  An empty list raises ParameterError."""
    if kernel is None:
        kernel = fpkernel
    if not algebras:
        raise ParameterError("automorphism sweeps need at least one algebra")
    first = algebras[0]
    p = _require_prime_field(first.field)
    n = first.dim
    for other in algebras[1:]:
        if other.field != first.field or other.dim != n:
            raise ParameterError("algebras must share a field and dimension")
    _require_sweep_dim(n)
    tensors = [flat_bracket_tensor(L) for L in algebras]
    check_guard(fpkernel.automorphism_candidate_count(p, n, tensors))
    auts = tuple(kernel.gl_invariance_sweep(p, n, tensors, 0, p ** (n * n)))
    tables = [L.terms() for L in dict.fromkeys(algebras) if L.raw]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    for index in auts if tables else ():
        T = _index_digits(index, p, n * n)
        # the columns T e_i, and T as the one-slot table of x.v = x_0 T v
        cols = [[(k, T[k * n + i]) for k in range(n) if T[k * n + i]]
                for i in range(n)]
        M = {(0, i): col for i, col in enumerate(cols)}
        for B in tables:

            def delta(acc, idx):
                i, j = idx
                accumulate(acc, B, cols[i], cols[j])
                nest_right(acc, M, B, -1, 0, i, j)

            if not scan_item(None, first.field, n, pairs, delta).passed:
                raise _kernel_disagrees(index)
    return auts


def transform_product(product, T, Tinv=None):
    """The product conjugated by the basis change T: the table of
    T^-1 (T x . T y).  `Tinv` is the inverse of T when the caller already
    holds it."""
    return product.change_basis(T, Tinv)


@dataclass(frozen=True)
class OrbitDecomposition:
    spec: SearchSpec
    orbits: tuple
    aut_order: int

    @property
    def count(self):
        return len(self.orbits)

    def representatives(self):
        return tuple(orbit[0] for orbit in self.orbits)


def orbit_reduce(spec, indices, kernel=None):
    """Group sweep hits into isomorphism classes.

    Two products are isomorphic when a single invertible T preserving both
    bracket tables carries one to the other, so the group swept here is
    Aut(g) intersected with Aut(n) and the orbits partition the hit list.
    The partition is checked: acting on a hit must land on a hit, and the
    orbit sizes must add up to the number of hits.
    """
    field, p, n = spec.g.field, spec.p, spec.dim
    hit_set = set(indices)
    auts = automorphism_indices([spec.g, spec.n], kernel=kernel)
    # T^-1 of every T from one adjugate pass, which checks T T^-1 = I too
    rows = [_index_digits(a, p, n * n) for a in auts]
    pairs = [(Matrix._from_canonical(field, n, n, T),
              Matrix._from_canonical(field, n, n, Tinv))
             for T, Tinv in zip(rows, fpkernel.inverse_matrices(p, n, rows))]
    seen = set()
    orbits = []
    for index in sorted(hit_set):
        if index in seen:
            continue
        product = decode_product(spec, index)
        orbit = set()
        for T, Tinv in pairs:
            moved = encode_product(spec, transform_product(product, T, Tinv))
            if moved not in hit_set:
                raise GuardError(
                    "automorphism carried hit %d to non-hit %d; orbit "
                    "reduction is inconsistent" % (index, moved))
            orbit.add(moved)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    if sum(len(o) for o in orbits) != len(hit_set):
        raise GuardError("orbit sizes do not add up to the hit count")
    return OrbitDecomposition(spec=spec, orbits=tuple(orbits),
                              aut_order=len(auts))


def _fp_bracket_class(L):
    """Coarse isomorphism-invariant label for a small Lie algebra over
    GF(p): enough to separate the classes the probes ask about."""
    if L.is_abelian():
        return "abelian"
    if is_perfect(L):
        return "perfect"
    if is_nilpotent(L):
        return "nilpotent"
    if is_solvable(L):
        return "solvable"
    return "other"


_PROBE_TARGETS = {
    "abelian": "abelian",
    "nilpotent": "nilpotent",
    "heisenberg": "nilpotent",
    "r3": "solvable",
    "solvable": "solvable",
    "sl2": "perfect",
}


@dataclass(frozen=True)
class ProbeResult:
    p: int
    g_class: str
    n_class: str
    total: int
    hits: tuple
    matching: tuple
    class_counts: dict
    banner: str

    @property
    def exists(self):
        return bool(self.matching)


def nonexistence_probe(g_class, n_class="sl2", p=5, kernel=None):
    """Exhaustive check over GF(p): does any structure product exist whose
    second bracket is the named simple table and whose induced first
    bracket falls in the named class?

    The swept n must be complete over GF(p) (`is_complete_lie`; builtin
    sl2 is not mod 2, and a ParameterError says so).  Then the
    endomorphism parametrization covers every structure product (see
    phi_ansatz_sweep), so an empty `matching` is a genuine nonexistence
    statement for GF(p).  It is evidence, not a proof, for characteristic
    zero; the banner says so and callers must keep it attached to any
    reported conclusion.
    """
    if n_class != "sl2":
        raise ParameterError(
            "probes require the complete simple table (n_class 'sl2'); "
            "for other second brackets the endomorphism sweep is not "
            "exhaustive")
    if g_class not in _PROBE_TARGETS:
        raise ParameterError("unknown first-bracket class %r; expected one "
                             "of %s" % (g_class, sorted(_PROBE_TARGETS)))
    from .catalog import builtin_algebra
    n_alg = builtin_algebra("sl2", field=GF(p))
    if not is_complete_lie(n_alg):
        raise ParameterError(
            "the simple table is not complete over GF(%d), so the "
            "endomorphism sweep is not exhaustive" % p)
    sweep = phi_ansatz_sweep(n_alg, kernel=kernel)
    target = _PROBE_TARGETS[g_class]
    counts = {}
    matching = []
    for index, pair in zip(sweep.indices, sweep.pairs):
        label = _fp_bracket_class(pair.g)
        counts[label] = counts.get(label, 0) + 1
        if label == target:
            matching.append(index)
    return ProbeResult(p=p, g_class=g_class, n_class=n_class,
                       total=sweep.total, hits=sweep.indices,
                       matching=tuple(matching), class_counts=counts,
                       banner=BANNER % p)
