"""Dense exact matrices with a deterministic reduced row echelon form.

Row reduction always takes the first row with a nonzero entry in the
current column as pivot and normalizes it to 1, so echelon forms, ranks,
solution vectors, and nullspace bases are identical from run to run.
No floating point is used anywhere.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import mul

from .errors import DimensionError, FieldMismatchError


def scalars(field, values):
    """`values` coerced into a tuple of scalars of `field`.  A Fraction is
    a scalar of Q already and is passed through; a residue still has its
    modulus checked."""
    kind = Fraction if field.p is None else None
    scalar = field.scalar
    return tuple([v if type(v) is kind else scalar(v) for v in values])


def as_vector(field, dim, spec):
    """Coerce `spec` into a length-`dim` tuple of field scalars.

    Accepts a sequence of length dim, or a sparse {index: coeff} mapping.
    """
    if isinstance(spec, dict):
        out = [field.zero] * dim
        for k, v in spec.items():
            if not isinstance(k, int) or not 0 <= k < dim:
                raise DimensionError("component index %r outside 0..%d" % (k, dim - 1))
            out[k] = field.scalar(v)
        return tuple(out)
    vec = scalars(field, spec)
    if len(vec) != dim:
        raise DimensionError("expected a vector of length %d, got %d" % (dim, len(vec)))
    return vec


# vadd, vsub and vscale pass a coordinate through where the other
# operand is zero: a Fraction operation costs a gcd even on a zero, and
# the operands are field scalars, so the result is unchanged.


def vadd(u, v):
    return tuple(a + b if b else a for a, b in zip(u, v, strict=True))


def vsub(u, v):
    return tuple(a - b if b else a for a, b in zip(u, v, strict=True))


def vneg(u):
    return tuple(-a for a in u)


def vscale(c, u):
    return tuple(c * a if a else a for a in u)


def vzero(field, n):
    return (field.zero,) * n


# Over Q the sparse forms below carry an integral rational as its int
# numerator: int products and sums cost no gcd, an int mixed with a
# Fraction gives the same Fraction, and every sum is read back through
# `Field.from_raw`, `reduce_table` or `contract`, so no answer changes.


def sparse(field, vec):
    """The nonzero coordinates of a vector of field scalars, as a list of
    (k, raw value) pairs (see `Field.raw`): the operand form of
    `accumulate`.  Over Q an integral coordinate is its int numerator
    and any other Fraction is itself, so only coordinates of other types
    go through `Field.raw`."""
    raw = field.raw
    if field.p is None:
        out = []
        for k, c in enumerate(vec):
            if c:
                if type(c) is not Fraction:
                    c = raw(c)
                out.append((k, c.numerator if c.denominator == 1 else c))
        return out
    return [(k, raw(c)) for k, c in enumerate(vec) if c]


@lru_cache(maxsize=64)
def sparse_units(field, dim):
    """The unit vectors e_k and their negatives -e_k in sparse form, as
    two tuples indexed by k; built once per field and dimension.  The
    coordinates are the ints 1 and -1, raw values in every field."""
    del field
    return (tuple(((k, 1),) for k in range(dim)),
            tuple(((k, -1),) for k in range(dim)))


def raw_terms(raw_table):
    """The sparse slot table of a table of raw vectors: each pair maps to
    the (k, value) pairs of its nonzero coordinates, in operand form (see
    `sparse`), and pairs with none are dropped."""
    out = {}
    for key, vec in raw_table.items():
        terms = tuple([(k, v.numerator if type(v) is Fraction
                        and v.denominator == 1 else v)
                       for k, v in enumerate(vec) if v])
        if terms:
            out[key] = terms
    return out


def support_terms(field, slots):
    """The sparse form of a slot table of field scalars, as `accumulate`
    reads it: `slots` maps index pairs (i, j) to B(e_i, e_j), and the
    result is `raw_terms` of their raw values."""
    return raw_terms({key: raw_vector(field, vec)
                      for key, vec in slots.items()})


def accumulate(acc, terms, x, y):
    """Add B(x, y) into `acc`, a list of raw values that starts as plain
    int zeros, for the bilinear map whose sparse slot table is `terms`
    (see `support_terms`); x and y are sparse operands (see `sparse`).

    This is the one bilinear kernel.  Only supp(x) x supp(y) is visited,
    and each slot contributes only its nonzero coordinates, so the cost
    follows the nonzero coordinates of the operands and of the table, not
    dim**3.  Nothing is reduced: `reduce_raw`, `reduce_table` or
    `Field.from_raw` does that once per coordinate, when the sum is read.
    """
    get = terms.get
    for i, a in x:
        for j, b in y:
            slot = get((i, j))
            if slot is not None:
                c = a * b
                for k, v in slot:
                    # a Fraction sum costs a gcd even onto a zero
                    w = acc[k]
                    acc[k] = w + c * v if w else c * v


def raw_vector(field, vec):
    """The raw values of a vector of field scalars, every coordinate."""
    return [field.raw(c) for c in vec]


def reduce_raw(field, values):
    """Raw values in canonical form: residues in 0..p-1 over GF(p); over Q
    the values themselves, which are exact already."""
    p = field.p
    return values if p is None else [v % p for v in values]


def reduce_table(field, table):
    """A table of raw vectors in canonical form (see `Field.raw`), in key
    order: each vector a tuple of residues in 0..p-1 over GF(p), of
    Fractions over Q, each coordinate reduced once; keys whose vector
    reduces to zero are dropped."""
    p = field.p
    out = {}
    for key in sorted(table):
        if p is None:
            vec = tuple([v if type(v) is Fraction else Fraction(v)
                         for v in table[key]])
        else:
            vec = tuple([v % p for v in table[key]])
        if any(vec):
            out[key] = vec
    return out


class SparseTable:
    """The structure constants of a bilinear map V x V -> V: the storage
    of bracket tables and products.

    `raw` maps index pairs (i, j) to B(e_i, e_j) in the canonical form of
    `reduce_table`; absent pairs are zero.  `table` holds the same vectors
    as field scalars, built on first read.  A subclass names its keys
    with `_check_key(i, j, dim)`, which raises DimensionError on others.
    Equality (type-strict) and hashing read `raw`."""

    __slots__ = ("field", "dim", "raw", "_table", "_terms")

    def __init__(self, field, dim, table=None):
        data = {}
        for (i, j), spec in sorted((table or {}).items()):
            self._check_key(i, j, dim)
            vec = as_vector(field, dim, spec)
            if not is_zero_vec(vec):
                data[(i, j)] = vec
        self.field = field
        self.dim = dim
        self.raw = {key: tuple(map(field.raw, vec))
                    for key, vec in data.items()}
        self._table = data
        self._terms = None

    @classmethod
    def from_raw(cls, field, dim, table, **attrs):
        """The table of raw vectors (see `Field.raw`), each coordinate
        reduced once (see `reduce_table`); the keys are trusted to lie in
        range and the vectors to have length dim."""
        return cls._from_canonical(field, dim, reduce_table(field, table),
                                   **attrs)

    @classmethod
    def _from_canonical(cls, field, dim, raw):
        """The table whose `raw` is the given one, which is trusted to be
        in canonical form already: stored as it is, not reduced again."""
        out = cls.__new__(cls)
        out.field = field
        out.dim = dim
        out.raw = raw
        out._table = None
        out._terms = None
        return out

    @property
    def table(self):
        """{(i, j): vector of field scalars} of the nonzero slots, in key
        order, built from `raw` once."""
        if self._table is None:
            from_raw = self.field.from_raw
            self._table = {key: tuple(map(from_raw, vec))
                           for key, vec in self.raw.items()}
        return self._table

    def terms(self):
        """The sparse slot table (see `support_terms`), built once."""
        if self._terms is None:
            self._terms = raw_terms(self.raw)
        return self._terms

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.field, self.dim, tuple(self.raw.items())))


def contract(field, dim, terms, x, y):
    """B(x, y) for the bilinear map whose sparse slot table is `terms`:
    `accumulate` on the supports of x and y, then one reduction per
    coordinate.  Both operands must have length dim."""
    if len(x) != dim or len(y) != dim:
        raise DimensionError("operands of length %d and %d in dimension %d"
                             % (len(x), len(y), dim))
    acc = [0] * dim
    accumulate(acc, terms, sparse(field, x), sparse(field, y))
    from_raw, zero = field.from_raw, field.zero
    if field.p is None:
        # a sum of Fraction terms is a Fraction already
        return tuple([v if type(v) is Fraction else from_raw(v) if v else zero
                      for v in acc])
    return tuple([from_raw(v) if v else zero for v in acc])


def is_zero_vec(u):
    return all(a == 0 for a in u)


def unit_vector(field, n, i):
    return tuple(field.one if j == i else field.zero for j in range(n))


class Matrix:
    """Immutable dense matrix over one field, stored row major."""

    __slots__ = ("field", "nrows", "ncols", "_e", "_raw")

    def __init__(self, field, rows):
        data = []
        width = None
        count = 0
        for row in rows:
            row = scalars(field, row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DimensionError("ragged rows: %d then %d" % (width, len(row)))
            data.extend(row)
            count += 1
        self.field = field
        self.nrows = count
        self.ncols = width if width is not None else 0
        self._e = tuple(data)
        self._raw = None

    @classmethod
    def _from_scalars(cls, field, nrows, ncols, entries, raw=None):
        """A matrix from row-major entries that are already scalars of
        `field`, without the constructor's coercion; `raw`, when given,
        is the tuple of their raw values (see `raw_flat`), trusted.  Like
        the constructor, a matrix with no rows has no columns."""
        out = object.__new__(cls)
        out.field = field
        out.nrows = nrows
        out.ncols = ncols if nrows else 0
        out._e = tuple(entries)
        out._raw = raw
        return out

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        cols = [scalars(field, c) for c in cols]
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise DimensionError("columns of unequal height")
        height = len(cols[0]) if cols else 0
        return cls._from_scalars(field, height, len(cols),
                                 [c[i] for i in range(height) for c in cols])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self._e[i * self.ncols + j]

    def row(self, i):
        return self._e[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j):
        return tuple(self._e[i * self.ncols + j] for i in range(self.nrows))

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def flat(self):
        return self._e

    def raw_flat(self):
        """The row-major entries as raw values (see `Field.raw`), built
        once; over Q they are the entries themselves."""
        if self._raw is None:
            self._raw = (self._e if self.field.p is None
                         else tuple(raw_vector(self.field, self._e)))
        return self._raw

    def _check_compatible(self, other, need_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix, got %r" % (other,))
        if self.field != other.field:
            raise FieldMismatchError("matrices over %s and %s" %
                                     (self.field.name, other.field.name))
        if need_shape and self.shape != other.shape:
            raise DimensionError("shape mismatch %r vs %r" % (self.shape, other.shape))

    def __add__(self, other):
        self._check_compatible(other, True)
        return Matrix._from_scalars(self.field, self.nrows, self.ncols,
                                    vadd(self._e, other._e))

    def __sub__(self, other):
        self._check_compatible(other, True)
        return Matrix._from_scalars(self.field, self.nrows, self.ncols,
                                    vsub(self._e, other._e))

    def __neg__(self):
        return Matrix._from_scalars(self.field, self.nrows, self.ncols,
                                    vneg(self._e))

    def scale(self, c):
        c = self.field.scalar(c)
        return Matrix._from_scalars(self.field, self.nrows, self.ncols,
                                    vscale(c, self._e))

    def __mul__(self, other):
        self._check_compatible(other, False)
        if self.ncols != other.nrows:
            raise DimensionError("cannot multiply %r by %r" % (self.shape, other.shape))
        field = self.field
        cols = [other.col(j) for j in range(other.ncols)]
        return Matrix._from_scalars(
            field, self.nrows, other.ncols,
            [_dot(self.row(i), c, field)
             for i in range(self.nrows) for c in cols])

    def apply(self, v):
        if len(v) != self.ncols:
            raise DimensionError("vector length %d, matrix width %d" %
                                 (len(v), self.ncols))
        return tuple(_dot(self.row(i), v, self.field) for i in range(self.nrows))

    def transpose(self):
        return Matrix(self.field, [self.col(j) for j in range(self.ncols)])

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionError("trace of a non-square matrix")
        t = self.field.zero
        for i in range(self.nrows):
            t = t + self.entry(i, i)
        return t

    def power(self, k):
        if self.nrows != self.ncols:
            raise DimensionError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative power")
        acc = Matrix.identity(self.field, self.nrows)
        for _ in range(k):
            acc = acc * self
        return acc

    def is_zero(self):
        return all(v == 0 for v in self._e)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._e == other._e)

    def __hash__(self):
        return hash((self.field, self.shape, tuple(str(v) for v in self._e)))

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in self.row(i))
                         for i in range(self.nrows))
        return "Matrix(%s, [%s])" % (self.field.name, body)


def _dot(u, v, field):
    """Sum of a*b over the coordinates where neither factor is zero; `u`
    is a matrix row, so the sum is a field scalar."""
    acc = None
    for a, b in zip(u, v, strict=True):
        if a and b:
            acc = a * b if acc is None else acc + a * b
    return field.zero if acc is None else acc


def cleared_denominators(values):
    """Rationals (or ints) times the lcm of their denominators, as ints: a
    positive integral multiple of the vector, zero where it is zero."""
    d = lcm(*[v.denominator for v in values])
    return [v.numerator * (d // v.denominator) if v else 0 for v in values]


def rref(matrix):
    """Reduced row echelon form.  Returns (R, pivot_columns).

    The elimination runs on plain values and builds the scalars of R once,
    at the end.  Over GF(p) it runs on residue ints, reduced after every
    row operation, with one modular inverse per pivot.  Over Q it runs
    fraction-free on ints (see `_rref_integral`); the RREF is unique, so
    R and the pivots are the same as a Gauss-Jordan on Fractions gives."""
    field = matrix.field
    p = field.p
    nrows, ncols = matrix.shape
    flat = matrix.raw_flat()
    rows = [list(flat[i * ncols:(i + 1) * ncols]) for i in range(nrows)]
    if p is None:
        entries, pivots = _rref_integral(rows, ncols, field)
        return Matrix._from_scalars(field, nrows, ncols, entries), pivots
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
        inv = pow(rows[r][c], -1, p)
        row = rows[r] = [v * inv % p for v in rows[r]]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                rows[i] = [(v - f * w) % p for v, w in zip(rows[i], row)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    entries = map(field.from_raw, [v for row in rows for v in row])
    return Matrix._from_scalars(field, nrows, ncols, entries), tuple(pivots)


def _rref_integral(rows, ncols, field):
    """The RREF of rational rows, as (row-major Fractions, pivots).

    Each row is scaled to ints by the lcm of its denominators, which keeps
    the row space.  Gauss-Jordan then runs fraction-free: a row is cleared
    in the pivot column by a*row - b*pivot_row with a, b the cofactors of
    gcd(pivot, entry), and every new row is divided by the gcd of its
    entries.  Each row stays a nonzero multiple of the row that the same
    elimination on Fractions holds, so the zero patterns, and with them
    the pivot choices, are the same; at the end each pivot row is divided
    by its pivot once, one Fraction per entry."""
    nrows = len(rows)
    rows = [cleared_denominators(row) for row in rows]
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
        row = rows[r]
        piv = row[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                new = [a * v - b * w if w else a * v
                       for v, w in zip(rows[i], row)]
                g = gcd(*new)
                # g is 0 when the row has become zero
                rows[i] = new if g <= 1 else [v // g for v in new]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    zero = field.zero
    entries = []
    for i, c in enumerate(pivots):
        piv = rows[i][c]
        entries += [Fraction(v, piv) if v else zero for v in rows[i]]
    # the rows below the pivot rows are zero
    entries += [zero] * ((nrows - len(pivots)) * ncols)
    return entries, tuple(pivots)


def rank(matrix):
    return len(rref(matrix)[1])


def _nullspace_from_rref(R, pivots, ncols):
    """Basis vectors ordered by ascending free column; free entry set to 1."""
    field = R.field
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        v = [field.zero] * ncols
        v[f] = field.one
        for r, c in enumerate(pivots):
            v[c] = -R.entry(r, f)
        basis.append(tuple(v))
    return tuple(basis)


def nullspace(matrix):
    """Deterministic basis of the right kernel."""
    R, pivots = rref(matrix)
    return _nullspace_from_rref(R, pivots, matrix.ncols)


@dataclass(frozen=True)
class LinearSolution:
    """Solution set of A x = b: one particular solution (None when empty)
    plus a basis of the homogeneous kernel."""

    particular: tuple | None
    homogeneous: tuple

    @property
    def solvable(self):
        return self.particular is not None


def rref_solve(matrix, b):
    """Solve A x = b exactly.  Free variables are set to zero in the
    particular solution, so the output is deterministic."""
    if len(b) != matrix.nrows:
        raise DimensionError("rhs length %d, matrix height %d" %
                             (len(b), matrix.nrows))
    field = matrix.field
    b = scalars(field, b)
    ncols = matrix.ncols
    aug = Matrix._from_scalars(field, matrix.nrows, ncols + 1,
                               [v for i in range(matrix.nrows)
                                for v in matrix.row(i) + (b[i],)])
    R, pivots = rref(aug)
    a_pivots = tuple(c for c in pivots if c < ncols)
    homogeneous = _nullspace_from_rref(R, a_pivots, ncols)
    if any(c == ncols for c in pivots):
        return LinearSolution(None, homogeneous)
    x = [field.zero] * ncols
    for r, c in enumerate(a_pivots):
        x[c] = R.entry(r, ncols)
    return LinearSolution(tuple(x), homogeneous)


def inverse(matrix):
    """Exact inverse, or None when the matrix is singular."""
    if matrix.nrows != matrix.ncols:
        raise DimensionError("inverse of a non-square matrix")
    n = matrix.nrows
    R, pivots = rref(_with_identity(matrix))
    if tuple(range(n)) != pivots[:n] or len(pivots) != n:
        return None
    return Matrix._from_scalars(matrix.field, n, n,
                                [v for i in range(n) for v in R.row(i)[n:]])


def _with_identity(matrix):
    """[A | I], the matrix with the identity of its height on its right."""
    field = matrix.field
    n, k = matrix.shape
    one, zero = field.one, field.zero
    return Matrix._from_scalars(
        field, n, k + n,
        [v for i in range(n) for v in matrix.row(i)
         + tuple(one if j == i else zero for j in range(n))])


def basis_change_table(field, dim, terms, T, Tinv=None):
    """The structure constants of a bilinear map B written in the basis
    T e_1, ..., T e_n: {(i, j): T^-1 B(T e_i, T e_j)}, in the canonical
    form of `reduce_table`.

    `terms` is the sparse slot table of B (see `support_terms`): index
    pairs (a, b) map to the nonzero coordinates of B(e_a, e_b), and absent
    pairs are zero.  For each (i, j) the contraction visits only the
    support of the table, on raw values (see `Field.raw`).  The pairs
    come out in key order, so each coordinate is reduced once where it is
    produced, and a pair whose vector reduces to zero is left out.
    `Tinv` is the inverse of T when the caller already holds it; it is
    trusted, not checked.  Without it the inverse is computed here, and a
    singular T raises DimensionError.
    """
    if T.field != field:
        raise FieldMismatchError("basis change over %s for a table over %s"
                                 % (T.field.name, field.name))
    if T.shape != (dim, dim):
        raise DimensionError("basis change of shape %r for dimension %d"
                             % (T.shape, dim))
    if Tinv is None:
        Tinv = inverse(T)
        if Tinv is None:
            raise DimensionError("basis change matrix is singular")
    p = field.p
    n = range(dim)
    t = T.raw_flat()
    s = Tinv.raw_flat()
    cols = [t[i::dim] for i in n]
    back = [s[k * dim:(k + 1) * dim] for k in n]
    slots = [(a, b, vec) for (a, b), vec in terms.items()]
    table = {}
    for i in n:
        x = cols[i]
        for j in n:
            y = cols[j]
            # w = B(T e_i, T e_j) = sum over (a, b) of x_a y_b B(e_a, e_b)
            w = [0] * dim
            for a, b, vec in slots:
                c = x[a] * y[b]
                if c:
                    for k, v in vec:
                        w[k] += c * v
            if p is None:
                # the entries of T^-1 are Fractions, so each sum is one
                vec = tuple([sum(map(mul, r, w)) for r in back])
            else:
                vec = tuple([sum(map(mul, r, w)) % p for r in back])
            if any(vec):
                table[(i, j)] = vec
    return table


def coordinates_in_span(vectors, target, field):
    """Coefficients expressing `target` in the given spanning list, or None.

    Deterministic: free coefficients are zero.  An empty spanning list only
    matches the zero vector, giving the empty coefficient tuple.
    """
    if not vectors:
        return () if is_zero_vec(scalars(field, target)) else None
    sol = rref_solve(Matrix.from_cols(field, vectors), target)
    return sol.particular


def coordinates_in_span_many(vectors, targets, field):
    """`coordinates_in_span` of each target in turn, from one elimination.

    With A the matrix whose columns are `vectors`, [A | I] is reduced once
    to [R | E], so that E A = R with E invertible.  A x = t then says
    R x = E t: t lies in the span iff E t vanishes below the rank, and the
    pivot coordinates of x are the entries of E t above it, with the free
    coefficients zero as in `coordinates_in_span`.  Returns a list with a
    tuple of coefficients, or None, per target.
    """
    targets = [scalars(field, t) for t in targets]
    if not vectors:
        return [() if is_zero_vec(t) else None for t in targets]
    A = Matrix.from_cols(field, vectors)
    height, k = A.shape
    R, pivots = rref(_with_identity(A))
    a_pivots = [c for c in pivots if c < k]
    rank = len(a_pivots)
    E = [R.row(i)[k:] for i in range(height)]
    zero = field.zero
    out = []
    for t in targets:
        if len(t) != height:
            raise DimensionError("target length %d, span height %d"
                                 % (len(t), height))
        y = [_dot(row, t, field) for row in E]
        if any(y[rank:]):
            out.append(None)
            continue
        x = [zero] * k
        for r, c in enumerate(a_pivots):
            x[c] = y[r]
        out.append(tuple(x))
    return out


def span_basis(field, ambient, vectors):
    """Canonical (RREF row) basis of the span of `vectors` in field^ambient."""
    vectors = [as_vector(field, ambient, v) for v in vectors]
    if not vectors:
        return ()
    R, pivots = rref(Matrix._from_scalars(field, len(vectors), ambient,
                                          [v for vec in vectors for v in vec]))
    return tuple(R.row(i) for i in range(len(pivots)))


def is_nilpotent_matrix(matrix):
    """Exact nilpotency test: some power up to the dimension vanishes."""
    if matrix.nrows != matrix.ncols:
        raise DimensionError("nilpotency of a non-square matrix")
    acc = matrix
    for _ in range(matrix.nrows):
        if acc.is_zero():
            return True
        acc = acc * matrix
    return matrix.nrows == 0


def is_nilpotent_int(flat, n, p=None):
    """`is_nilpotent_matrix` of the n x n integer matrix whose row-major
    entries are `flat`, on plain ints: some power up to n vanishes.  With
    a modulus p, over GF(p): the entries and each power are reduced."""
    if p is not None:
        flat = [v % p for v in flat]
    cols = [flat[j::n] for j in range(n)]
    acc = flat
    for step in range(n):
        if not any(acc):
            return True
        if step < n - 1:
            acc = [sum(map(mul, acc[i * n:(i + 1) * n], col))
                   for i in range(n) for col in cols]
            if p is not None:
                acc = [v % p for v in acc]
    return n == 0


def commutator(a, b):
    return a * b - b * a


def flatten_matrix(matrix):
    """Row-major flattening, for treating operators as vectors."""
    return matrix.flat()


def matrix_from_flat(field, n, flat):
    return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
