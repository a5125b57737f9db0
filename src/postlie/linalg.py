"""Exact vectors, matrices and structure-constant tables, with a
deterministic reduced row echelon form.

Storage rule: tables (`SparseTable`) and matrices (`Matrix`) keep raw
values (see `Field.raw`) in one canonical form, residues in 0..p-1 over
GF(p) and Fractions over Q, and subspaces (`lie.Subspace`) the int rows
of their echelon form; each builds field scalars only when those are
read, and over Q the raw values are the scalars.

Row reduction (`echelon`) is fraction-free Gauss-Jordan on ints.  It
takes the first row with a nonzero entry in the current column as pivot
and keeps each pivot row 1 at its pivot over GF(p), and content-free
with a positive pivot over Q; a row is divided by its pivot only when
the RREF is read.  So echelon forms, ranks, solution vectors, and
nullspace bases are identical from run to run.  No floating point is
used anywhere.
"""

from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .errors import DimensionError, FieldMismatchError


def as_vector(field, dim, spec):
    """Coerce `spec` into a length-`dim` tuple of field scalars.

    Accepts a sequence of length dim, or a sparse {index: coeff} mapping.
    A Fraction is a scalar of Q already and is passed through; a residue
    still has its modulus checked.
    """
    if isinstance(spec, dict):
        out = [field.zero] * dim
        for k, v in spec.items():
            if not isinstance(k, int) or not 0 <= k < dim:
                raise DimensionError("component index %r outside 0..%d" % (k, dim - 1))
            out[k] = field.scalar(v)
        return tuple(out)
    kind = Fraction if field.p is None else None
    scalar = field.scalar
    vec = tuple([v if type(v) is kind else scalar(v) for v in spec])
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
    (see `SparseTable.terms`); x and y are sparse operands (see `sparse`).

    This is the kernel for two general operands; a nested term with
    basis-vector operands goes through `nest_left` or `nest_right`
    instead.  Only supp(x) x supp(y) is visited, and each slot contributes
    only its nonzero coordinates, so the cost follows the nonzero
    coordinates of the operands and of the table, not dim**3.  Nothing is
    reduced: `reduce_table`, `Field.from_raw` or `report.scan_item` does
    that once per coordinate, when the sum is read.
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


# The nested terms of an identity of degree 2, read straight off the
# slots of two sparse slot tables: outer(v, e_k) is the sum over s of
# v_s outer(e_s, e_k), from outer.get((s, k)).  The scans hand them
# tables scaled to ints (see `SparseTable.scaled_terms`), so the sums
# skip the zero test of `accumulate`.


def nest_left(acc, outer, inner, c, i, j, k):
    """Add c outer(inner(e_i, e_j), e_k) into `acc`."""
    for s, a in inner.get((i, j), ()):
        a *= c
        for t, v in outer.get((s, k), ()):
            acc[t] += a * v


def nest_right(acc, outer, inner, c, i, j, k):
    """Add c outer(e_i, inner(e_j, e_k)) into `acc`."""
    for s, a in inner.get((j, k), ()):
        a *= c
        for t, v in outer.get((i, s), ()):
            acc[t] += a * v


def raw_vector(field, vec):
    """The raw values of a vector of field scalars, every coordinate."""
    return [field.raw(c) for c in vec]


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

    __slots__ = ("field", "dim", "raw", "_table", "_terms", "_den", "_scaled")

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
        self._terms = self._den = self._scaled = None

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
        out._table = out._terms = out._den = out._scaled = None
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
        """The sparse slot table, built once (see `raw_terms`): each pair
        (i, j) with a nonzero slot maps to the (k, value) pairs of the
        nonzero coordinates of B(e_i, e_j), the form `accumulate` reads."""
        if self._terms is None:
            self._terms = raw_terms(self.raw)
        return self._terms

    def denominator(self):
        """The lcm of the denominators of the structure constants, built
        once: 1 over GF(p), whose raw values are residues already."""
        if self._den is None:
            self._den = 1 if self.field.p is not None else lcm(
                *[v.denominator for vec in self.raw.values() for v in vec])
        return self._den

    def scaled_terms(self, d=None):
        """`terms()` with every value times d, a multiple of
        `denominator()` (by default that), so that every value is an int;
        the table for the last d asked for is kept."""
        d = self.denominator() if d is None else d
        if d == 1:
            return self.terms()
        if self._scaled is None or self._scaled[0] != d:
            self._scaled = (d, {key: tuple([
                (k, v * d if type(v) is int
                 else v.numerator * (d // v.denominator)) for k, v in vec])
                for key, vec in self.terms().items()})
        return self._scaled[1]

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return (self.field == other.field and self.dim == other.dim
                and self.raw == other.raw)

    def __hash__(self):
        return hash((self.field, self.dim, tuple(self.raw.items())))


def common_denominator(*tables):
    """The lcm of the `denominator()`s of the given tables, all over one
    field: scaled by it (see `SparseTable.scaled_terms`) they all hold
    ints, and an identity of degree k in the tables is scaled by its k-th
    power.  Over GF(p) it is 1 at once."""
    if tables[0].field.p is not None:
        return 1
    return lcm(*[t.denominator() for t in tables])


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
    """Immutable dense matrix over one field, stored row major.

    The entries are kept as raw values (see `Field.raw`) in the canonical
    form of `reduce_table`, and sums, negation and `scale` run on them.
    `flat`, `row`, `col` and `entry` read field scalars, built from the
    raw values on first read; over Q the raw values are the scalars.
    Products, `apply` and `commutator` run on the integer form of the
    entries (see `int_form`)."""

    __slots__ = ("field", "nrows", "ncols", "_raw", "_e", "_int")

    def __init__(self, field, rows):
        rows = [raw_vector(field, row) for row in rows]
        width = len(rows[0]) if rows else 0
        for row in rows:
            if len(row) != width:
                raise DimensionError("ragged rows: %d then %d" % (width, len(row)))
        self.field = field
        self.nrows = len(rows)
        self.ncols = width
        self._raw = tuple([v for row in rows for v in row])
        self._e = self._int = None

    @classmethod
    def _from_canonical(cls, field, nrows, ncols, raw):
        """The matrix whose row-major raw values are `raw`, which are
        trusted to be in canonical form already: stored as they are, not
        reduced again.  Like the constructor, a matrix with no rows has no
        columns."""
        out = object.__new__(cls)
        out.field = field
        out.nrows = nrows
        out.ncols = ncols if nrows else 0
        out._raw = tuple(raw)
        out._e = out._int = None
        return out

    @classmethod
    def _from_ints(cls, field, nrows, ncols, ints, d):
        """The matrix whose row-major entries are ints[k] / d (see
        `raw_ints`); over Q the pair is kept as its `int_form`."""
        out = cls._from_canonical(field, nrows, ncols, raw_ints(field, ints, d))
        if field.p is None:
            out._int = (ints, d)
        return out

    @classmethod
    def identity(cls, field, n):
        return cls(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, field, nrows, ncols):
        return cls(field, [[0] * ncols for _ in range(nrows)])

    @classmethod
    def from_cols(cls, field, cols):
        cols = [raw_vector(field, c) for c in cols]
        if cols and any(len(c) != len(cols[0]) for c in cols):
            raise DimensionError("columns of unequal height")
        height = len(cols[0]) if cols else 0
        return cls._from_canonical(field, height, len(cols),
                                   [c[i] for i in range(height) for c in cols])

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def entry(self, i, j):
        return self.flat()[i * self.ncols + j]

    def row(self, i):
        return self.flat()[i * self.ncols:(i + 1) * self.ncols]

    def col(self, j):
        flat = self.flat()
        return tuple(flat[i * self.ncols + j] for i in range(self.nrows))

    def rows(self):
        return [self.row(i) for i in range(self.nrows)]

    def flat(self):
        """The row-major entries as field scalars, built once from the raw
        values; over Q they are the raw values."""
        if self._e is None:
            field = self.field
            self._e = (self._raw if field.p is None
                       else tuple(map(field.from_raw, self._raw)))
        return self._e

    def raw_flat(self):
        """The row-major entries as raw values (see `Field.raw`)."""
        return self._raw

    def int_form(self):
        """(ints, d), built once: the row-major entries are ints[k] / d.
        Over Q d > 0 clears every denominator (see `integral_form`); over
        GF(p) the ints are the residues and d is 1."""
        if self._int is None:
            self._int = (integral_form(self._raw) if self.field.p is None
                         else (self._raw, 1))
        return self._int

    def _check_compatible(self, other, need_shape):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix, got %r" % (other,))
        if self.field != other.field:
            raise FieldMismatchError("matrices over %s and %s" %
                                     (self.field.name, other.field.name))
        if need_shape and self.shape != other.shape:
            raise DimensionError("shape mismatch %r vs %r" % (self.shape, other.shape))

    def _like(self, raw):
        """A matrix of this shape from raw values in any representative:
        reduced mod p over GF(p), Fractions already over Q."""
        p = self.field.p
        return Matrix._from_canonical(self.field, self.nrows, self.ncols,
                                      raw if p is None else [v % p for v in raw])

    def __add__(self, other):
        self._check_compatible(other, True)
        return self._like(vadd(self._raw, other._raw))

    def __sub__(self, other):
        self._check_compatible(other, True)
        return self._like(vsub(self._raw, other._raw))

    def __neg__(self):
        return self._like(vneg(self._raw))

    def scale(self, c):
        return self._like(vscale(self.field.raw(c), self._raw))

    def _int_product(self, other):
        """(ints, d) of self * other: the products of the integer forms,
        summed on ints, over the product of their d."""
        self._check_compatible(other, False)
        if self.ncols != other.nrows:
            raise DimensionError("cannot multiply %r by %r" % (self.shape, other.shape))
        a, da = self.int_form()
        b, db = other.int_form()
        m, c = self.ncols, other.ncols
        cols = [b[j::c] for j in range(c)]
        return ([sum(map(mul, a[i * m:(i + 1) * m], col))
                 for i in range(self.nrows) for col in cols], da * db)

    def __mul__(self, other):
        ints, d = self._int_product(other)
        return Matrix._from_ints(self.field, self.nrows, other.ncols, ints, d)

    def apply(self, v):
        if len(v) != self.ncols:
            raise DimensionError("vector length %d, matrix width %d" %
                                 (len(v), self.ncols))
        field = self.field
        a, d = self.int_form()
        if field.p is None:
            w, dv = integral_form(v)
            d *= dv
        else:
            w = raw_vector(field, v)
        m = self.ncols
        return tuple(from_ints(field, [sum(map(mul, a[i * m:(i + 1) * m], w))
                                       for i in range(self.nrows)], d))

    def transpose(self):
        n = self.ncols
        return Matrix._from_canonical(self.field, n, self.nrows,
                                      [v for j in range(n)
                                       for v in self._raw[j::n]])

    def trace(self):
        if self.nrows != self.ncols:
            raise DimensionError("trace of a non-square matrix")
        return self.field.from_raw(sum(self._raw[::self.ncols + 1]))

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
        return not any(self._raw)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.field == other.field and self.shape == other.shape
                and self._raw == other._raw)

    def __hash__(self):
        return hash((self.field, self.shape, self._raw))

    def __repr__(self):
        body = "; ".join(", ".join(str(v) for v in self.row(i))
                         for i in range(self.nrows))
        return "Matrix(%s, [%s])" % (self.field.name, body)


def raw_ints(field, ints, d=1):
    """The raw values ints[k] / d in canonical form, one built per value:
    over Q a Fraction (the shared zero for 0), over GF(p) the residue of
    the int times the inverse of d, reduced once."""
    p = field.p
    if p is None:
        zero = field.zero
        if d == 1:
            return [Fraction(v) if v else zero for v in ints]
        return [Fraction(v, d) if v else zero for v in ints]
    inv = pow(d, -1, p)
    return [v * inv % p for v in ints]


def from_ints(field, ints, d=1):
    """The scalars ints[k] / d: `raw_ints` read as field scalars, which
    over Q are the raw values themselves."""
    raw = raw_ints(field, ints, d)
    return raw if field.p is None else list(map(field.from_raw, raw))


def integral_form(values):
    """(ints, d) for rationals (or ints): d > 0 is the lcm of their
    denominators and ints the values times d, zero where they are zero."""
    d = lcm(*[v.denominator for v in values])
    if d == 1:
        return [v.numerator for v in values], 1
    return [v.numerator * (d // v.denominator) if v else 0
            for v in values], d


def _rows(matrix):
    n, flat = matrix.ncols, matrix.int_form()[0]
    return [flat[i * n:(i + 1) * n] for i in range(matrix.nrows)]


def echelon(p, rows):
    """The reduced echelon form of a list of rows of raw values (see
    `Field.raw`) over GF(p), or over Q when p is None: (rows, pivots) of
    its nonzero rows, as tuples of ints, residues with pivot 1 over GF(p)
    and content-free with a positive pivot over Q, so unique to the row
    space; row / row[pivot] is the row of the RREF.

    The one elimination loop: fraction-free Gauss-Jordan on residues over
    GF(p) and `integral_form` rows over Q.  A row is cleared by
    a*row - b*pivot_row, with a, b the cofactors of gcd(pivot, entry),
    then reduced mod p, or divided by its gcd over Q.  So each row stays a
    nonzero multiple of the row that elimination on field scalars holds,
    with the same zero patterns and pivots."""
    if p is None:
        rows = [row if all(type(v) is int for v in row)
                else integral_form(row)[0] for row in rows]

        def tidy(row):
            g = gcd(*row)
            # g is 0 when the row has become zero
            return row if g <= 1 else [v // g for v in row]
    else:
        def tidy(row):
            return [v % p for v in row]
        rows = list(map(tidy, rows))
    nrows = len(rows)
    pivots = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        pivot_row = None
        for i in range(r, nrows):
            if rows[i][c]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        row, rows[pivot_row] = rows[pivot_row], rows[r]
        # normalized as returned; the eliminations scale rows by a > 0
        g = pow(row[c], -1, p) if p else gcd(*row) * (1 if row[c] > 0 else -1)
        rows[r] = row = [v * g % p if p else v // g for v in row]
        piv = row[c]
        for i in range(nrows):
            f = rows[i][c]
            if i != r and f:
                g = gcd(piv, f)
                a, b = piv // g, f // g
                rows[i] = tidy([a * v - b * w if w else a * v
                                for v, w in zip(rows[i], row)])
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(map(tuple, rows[:r])), tuple(pivots)


def rref(matrix):
    """Reduced row echelon form.  Returns (R, pivot_columns): the
    `echelon` of the rows, each divided by its pivot once (see
    `raw_ints`)."""
    field = matrix.field
    nrows, ncols = matrix.shape
    rows, pivots = echelon(field.p, _rows(matrix))
    entries = [v for row, c in zip(rows, pivots)
               for v in raw_ints(field, row, row[c])]
    # the rows below the pivot rows are zero
    entries += raw_ints(field, [0] * ((nrows - len(pivots)) * ncols))
    return Matrix._from_canonical(field, nrows, ncols, entries), pivots


def rank(matrix):
    return len(echelon(matrix.field.p, _rows(matrix))[1])


def kernel_rows(p, rows, ncols):
    """(vectors, l): the `nullspace` basis of rows of length ncols (as
    `echelon` reads them), each times l, the lcm of the pivots, as ints."""
    rows, pivots = echelon(p, rows)
    l = lcm(*[row[c] for row, c in zip(rows, pivots)])
    out = []
    for f in sorted(set(range(ncols)) - set(pivots)):
        v = [0] * ncols
        v[f] = l
        for row, c in zip(rows, pivots):
            v[c] = -row[f] % p if p else -row[f] * (l // row[c])
        out.append(v)
    return out, l


def nullspace(matrix):
    """Deterministic basis of the right kernel: one vector per free column,
    ascending, with free entry 1."""
    field = matrix.field
    vectors, l = kernel_rows(field.p, _rows(matrix), matrix.ncols)
    return tuple(tuple(from_ints(field, v, l)) for v in vectors)


def inverse(matrix):
    """Exact inverse, or None when the matrix is singular.  With (a, d)
    the integer form of A (see `Matrix.int_form`), the `echelon` of
    [a | d I] = d [A | I] has rows [r | e] with e A = r.  A is invertible
    exactly when the pivots are the columns of A, and then r is
    r[c] e_c on row c, so row c of the inverse is e / r[c]."""
    if matrix.nrows != matrix.ncols:
        raise DimensionError("inverse of a non-square matrix")
    field, n = matrix.field, matrix.nrows
    a, d = matrix.int_form()
    rows, pivots = echelon(field.p, [
        list(a[i * n:(i + 1) * n]) + [d if j == i else 0 for j in range(n)]
        for i in range(n)])
    if pivots != tuple(range(n)):
        return None
    return Matrix._from_canonical(field, n, n, [
        v for c, row in enumerate(rows)
        for v in raw_ints(field, row[n:], row[c])])


def basis_change_table(field, dim, terms, T, Tinv=None):
    """The structure constants of a bilinear map B written in the basis
    T e_1, ..., T e_n: {(i, j): T^-1 B(T e_i, T e_j)}, in the canonical
    form of `reduce_table`.

    `terms` is the sparse slot table of B (see `SparseTable.terms`): index
    pairs (a, b) map to the nonzero coordinates of B(e_a, e_b), and absent
    pairs are zero.  The checks come first: T over another field raises
    FieldMismatchError, and T of another shape, or a singular T when no
    `Tinv` is given, raises DimensionError.  An empty table then maps to
    the empty table at once.  Otherwise T^-1 is applied once to each
    nonzero slot, u_ab = T^-1 B(e_a, e_b), and slot (i, j) of the result
    is the sum over the support of T_ai T_bj u_ab, on raw values (see
    `Field.raw`); no output slot applies T^-1 again.  The pairs come out
    in key order, each coordinate reduced once where it is produced, and
    a pair whose vector reduces to zero is left out.  `Tinv` is the
    inverse of T when the caller already holds it; it is trusted, not
    checked.  Without it the inverse is computed here.
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
    if not terms:
        return {}
    p = field.p
    # over Q every sum starts as a Fraction, so it ends as one
    zero = 0 if p is not None else Fraction(0)
    n = range(dim)
    t = T.raw_flat()
    s = Tinv.raw_flat()
    cols = [t[i::dim] for i in n]
    back = [s[m::dim] for m in n]
    slots = []
    for (a, b), vec in terms.items():
        # u = T^-1 B(e_a, e_b), a sum of columns of T^-1
        u = [0] * dim
        for m, v in vec:
            col = back[m]
            for k in n:
                u[k] += v * col[k]
        slots.append((a, b, u))
    table = {}
    for i in n:
        x = cols[i]
        for j in n:
            y = cols[j]
            w = [zero] * dim
            for a, b, u in slots:
                c = x[a] * y[b]
                if c:
                    for k in n:
                        w[k] += c * u[k]
            if p is not None:
                for k in n:
                    w[k] %= p
            if any(w):
                table[(i, j)] = tuple(w)
    return table


def coordinates_in_span(vectors, target, field):
    """Coefficients expressing `target` in the given spanning list, or None:
    `coordinates_in_span_many` of the one target.

    Deterministic: free coefficients are zero.  An empty spanning list only
    matches the zero vector, giving the empty coefficient tuple.
    """
    return coordinates_in_span_many(vectors, [target], field)[0]


def coordinates_in_span_many(vectors, targets, field):
    """`coordinates_in_span` of each target in turn, from one elimination.

    With A the matrix whose columns are `vectors`, the raw rows of
    [A | I] go through `echelon` once, over Q times the lcm d of A's
    denominators, so that they are ints.  Each reduced row [r | e] has
    e A = r, so A x = t gives r x = e t.  A row whose pivot lies in the
    identity block has r = 0, and t lies in the span iff e t = 0 on every
    such row.  A row with pivot c < k gives x[c] = e t / r[c], and the
    free coefficients are zero.  Over Q the target enters as its
    `integral_form` (ints, dt), so x[c] is one Fraction (e ints) /
    (r[c] dt); over GF(p) r[c] is 1.  Returns a list with a tuple of
    coefficients, or None, per target.
    """
    p, zero = field.p, field.zero
    vectors = [raw_vector(field, v) for v in vectors]
    targets = [raw_vector(field, t) for t in targets]
    if not vectors:
        return [None if any(t) else () for t in targets]
    height, k = len(vectors[0]), len(vectors)
    if any(len(v) != height for v in vectors):
        raise DimensionError("columns of unequal height")
    # I is scaled too: d [A | I] has the row space, so the `echelon`
    # rows, of [A | I]
    d = 1 if p else lcm(*[v.denominator for vec in vectors for v in vec])
    rows, pivots = echelon(p, [
        [v[i].numerator * (d // v[i].denominator) for v in vectors]
        + [d if j == i else 0 for j in range(height)] for i in range(height)])
    out = []
    for t in targets:
        if len(t) != height:
            raise DimensionError("target length %d, span height %d"
                                 % (len(t), height))
        t, dt = (t, 1) if p else integral_form(t)
        x = [zero] * k
        for row, c in zip(rows, pivots):
            s = sum(map(mul, row[k:], t))
            if p:
                s %= p
            if c >= k:
                if s:
                    x = None
                    break
            elif s:
                x[c] = field.from_raw(s) if p else Fraction(s, row[c] * dt)
        out.append(x if x is None else tuple(x))
    return out


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
    """ab - ba, from the two integer products (see `Matrix.int_form`):
    one scalar per entry."""
    ab, d = a._int_product(b)
    ba, _ = b._int_product(a)
    if len(ab) != len(ba) or a.nrows != b.nrows:
        raise DimensionError("shape mismatch %r vs %r" % (a.shape, b.shape))
    return Matrix._from_ints(a.field, a.nrows, b.ncols,
                             [u - v for u, v in zip(ab, ba)], d)


def matrix_from_flat(field, n, flat):
    return Matrix(field, [flat[i * n:(i + 1) * n] for i in range(n)])
