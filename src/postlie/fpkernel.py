"""The finite-field sweep kernels, vectorized in numpy.

Candidates are indexed by base-p digit strings (big-endian over
row-major entries), and tensors are flat int lists of length n^3 with
T[(i*n + j)*n + k] the k-th component of the (i, j) slot.  Dimensions
are 1..3, and every kernel takes a prime modulus only, since the sweeps
solve their affine identities over GF(p).  Indices outside [0, p^k)
name no candidate, so a sweep returns no hits there, and inside it
returns the same sorted hits for any cut of the range into pieces.
`phi_sweep` raises ValueError when its bracket is not a Lie bracket
mod p.

Each identity is stated once over a batch of tensors, on the basis
tuples i < j (and i < j < k for Jacobi): Jacobi as a mask, and
skew-part, module-action and derivation-action as residuals that
`_vanishes` turns into masks.  Skew-part and derivation-action are
affine in the product tensor, so `product_sweep` reads its linear
system off the same statements and tests only the candidates that
solve it, with module-action alone; `verify_structure` tests all
three.  Module-action is quadratic, but no product slot meets itself
in it, so it is affine in one slot once the others are fixed:
`product_sweep` computes its residual at c + 1 points per prefix of
the other slots and reads off the hits among all p^c values of the
last slot's c free digits at once.

Every sweep runs in batches of about `_CHUNK` (2^12) solutions,
prefixes or candidates, so that a batch's int64 tensors stay
cache-sized, and `_vanishes` reduces its residual in place.

`phi_sweep` and `gl_invariance_sweep` run one column sweep over n x n
matrices (`_column_sweep`): column t comes from a solve, and where
nothing is solved it takes all p^n values, which scans the whole box.
It shares one bisection (`_first`) with `product_sweep`.  Sweep hits
are not checked again here: `search` re-verifies every hit in exact
arithmetic, so the numpy layer is never the sole authority on a hit.
`inverse_matrices` inverts a batch of matrices over GF(p) by their
adjugates, for the automorphisms that `search.orbit_reduce` conjugates
by.

`BACKEND` (equal to `NAME`) names the implementation that search results
and reports record, and `backends()` lists every kernel module, which the
benchmark script and the kernel tests iterate over; this module is the
only one.

numpy is bound lazily (`_lazy_import`), so importing this module, or
reading `NAME`, `BACKEND` and `backends()`, does not run numpy; the first
kernel call that touches an array does.
"""

import importlib.util
import sys
from functools import lru_cache, partial
from itertools import combinations, permutations

from .fields import is_prime
from .linalg import echelon, kernel_rows


def _lazy_import(name):
    """The module `name`, executed on the first read of one of its
    attributes (the standard library's `importlib.util.LazyLoader`
    recipe), or the module itself when it is imported already."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError("No module named %r" % name, name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_import("numpy")

NAME = BACKEND = "python"

_CHUNK = 1 << 12


def backends():
    """Every kernel module; there is one."""
    return [sys.modules[__name__]]


def _check_args(p, n):
    if n < 1 or n > 3:
        raise ValueError("kernels support dimensions 1..3, got %d" % n)
    if p >= 2 ** 16:
        raise ValueError("modulus out of range: %d" % p)
    if not is_prime(p):
        raise ValueError("modulus %d is not prime" % p)


def _digits(lo, hi, p, k):
    """The k base-p digits of each index in [lo, hi), most significant
    first, as int64 rows; the indices are Python ints where int64 could
    overflow."""
    if p ** k < 2 ** 63:
        idx = np.arange(lo, hi, dtype=np.int64)
    else:
        idx = np.array(range(lo, hi), dtype=object)
    return (idx[:, None] // _places(p, k) % p).astype(np.int64, copy=False)


def _places(p, k):
    """The place values of k base-p digits, most significant first, in
    Python ints where int64 could overflow."""
    return np.array([p ** (k - 1 - s) for s in range(k)],
                    dtype=np.int64 if p ** k < 2 ** 63 else object)


def _first(bound, count, digits, place):
    """The first rank r < count whose digit row digits(r, r + 1) has an
    index of at least bound, or count: the one bisection that turns a
    sweep range into a range of ranks, where index grows with rank.  It
    bisects on Python ints, so count may pass 2^63."""
    lo, hi = 0, count
    while lo < hi:
        mid = (lo + hi) // 2
        if int(digits(mid, mid + 1)[0] @ place) < bound:
            lo = mid + 1
        else:
            hi = mid
    return lo


def _reciprocals(p):
    """1 / v mod p at index v, and 0 at index 0."""
    return np.array([0] + [pow(v, -1, p) for v in range(1, p)],
                    dtype=np.int64)


def _tensor(flat, n, p):
    if len(flat) != n ** 3:
        raise ValueError("flat tensor must have length %d" % n ** 3)
    return np.array(flat, dtype=np.int64).reshape(n, n, n) % p


def _increasing(n, r):
    """Index arrays of the strictly increasing r-tuples of basis indices."""
    tuples = np.array(list(combinations(range(n), r)), dtype=np.intp)
    return tuples.reshape(-1, r).T


def _vanishes(p, delta):
    """Per candidate m: every entry of delta[m] is 0 mod p.  delta is
    reduced in place."""
    delta %= p
    return ~np.any(delta, axis=tuple(range(1, delta.ndim)))


# The identities.  Batched tensors have shape (m, n, n, n); `cg` and `cn`
# are one (n, n, n) table shared by the batch.  Entries are reduced mod p,
# so every sum of products below fits in int64.

def _jacobi(p, br):
    """Jacobi: {{x, y}, z} + {{y, z}, x} + {{z, x}, y} = 0 on e_i, e_j, e_k,
    i < j < k."""
    i, j, k = _increasing(br.shape[-1], 3)

    def term(a, b, c):
        return np.einsum("mqt,mtqr->mqr", br[:, a, b], br[:, :, c])
    return _vanishes(p, term(i, j, k) + term(j, k, i) + term(k, i, j))


def _skew(pr, cg, cn):
    """Residual of skew-part, x.y - y.x = [x, y] - {x, y}, on e_i, e_j,
    i < j."""
    i, j = _increasing(pr.shape[-1], 2)
    return (pr - pr.swapaxes(1, 2) - cg + cn)[:, i, j]


def _module_action_residual(br, pr):
    """Residual of module-action, [x, y].z = x.(y.z) - y.(x.z), on
    x = e_i, y = e_j, i < j, one (m, n, n) block per basis pair, where br
    is the first bracket [,]: one (n, n, n) table shared by the batch, or
    br[m] per candidate m.  The matrix pr[m, i] is the transpose of
    L(e_i): v -> e_i . v.

    Its products x.(y.z) and y.(x.z) multiply a slot e_j . v by a slot
    e_i . w, and i != j, so no slot meets itself: with every other slot
    fixed, the residual is affine in any one slot."""
    n = pr.shape[-1]
    res = np.empty((len(pr), n * (n - 1) // 2, n, n), dtype=np.int64)
    for q, (i, j) in enumerate(combinations(range(n), 2)):
        res[:, q] = (np.einsum("...t,...tkr->...kr", br[..., i, j, :], pr)
                     - pr[:, j] @ pr[:, i] + pr[:, i] @ pr[:, j])
    return res


def _module_action(p, br, pr):
    """Module-action as a mask (see `_module_action_residual`)."""
    return _vanishes(p, _module_action_residual(br, pr))


def _derivation_action(cn, pr):
    """Residual of derivation-action, x.{y, z} = {x.y, z} + {y, x.z}, on
    y = e_j, z = e_k, j < k."""
    j, k = _increasing(cn.shape[-1], 2)
    return (np.einsum("qt,mitr->miqr", cn[j, k], pr)
            - np.einsum("miqt,tqr->miqr", pr[:, :, j], cn[:, k])
            - np.einsum("miqt,qtr->miqr", pr[:, :, k], cn[j]))


def _structure(p, cg, cn, pr):
    """The three pair identities of products pr[m] on (cg, cn)."""
    return (_vanishes(p, _skew(pr, cg, cn))
            & _module_action(p, cg, pr)
            & _vanishes(p, _derivation_action(cn, pr)))


def jacobi_ok(p, n, c):
    """Jacobi check of a flat bracket tensor."""
    _check_args(p, n)
    return bool(_jacobi(p, _tensor(c, n, p)[None])[0])


def verify_structure(p, n, cg, cn, pr):
    """Check of the three pair identities on flat tensors."""
    _check_args(p, n)
    cg, cn, pr = (_tensor(flat, n, p) for flat in (cg, cn, pr))
    return bool(_structure(p, cg, cn, pr[None])[0])


def _defect(p, cn, phi, i, j):
    """(w, D) per matrix phi[m] (column i is phi e_i) on the basis pair
    (x, y) = (e_i, e_j): w = {phi x, y} + {x, phi y} + {x, y} and the
    defect D(x, y) = {phi x, phi y} - phi w, both mod p."""
    x, y = phi[:, :, i], phi[:, :, j]
    w = (x @ cn[:, j] + y @ cn[i] + cn[i, j]) % p
    return w, (np.einsum("mk,ml,klr->mr", x, y, cn)
               - np.einsum("mrk,mk->mr", phi, w)) % p


def _phi_hits(p, cn, phi, pairs):
    """Per matrix phi[m]: the defect D (see `_defect`) is central on
    every basis pair (e_i, e_j) in pairs.

    By Jacobi of n, module-action of x.y = {phi x, y} against its
    induced bracket reads {z, D(x, y)} = 0 for all z, and D is
    antisymmetric, so over all pairs i < j this is module-action."""
    ok = np.ones(len(phi), dtype=bool)
    for i, j in pairs:
        d = _defect(p, cn, phi[ok], i, j)[1]
        ok[ok] = np.all(d @ cn.reshape(len(cn), -1) % p == 0, axis=1)
    return ok


def _centre(p, cn):
    """Every element of Z(n) mod p, one per row, from a basis computed
    exactly over GF(p): z is central when {z, e_j} = 0 for every j."""
    n = cn.shape[0]
    rows = cn.transpose(1, 2, 0).reshape(n * n, n).tolist()
    basis = np.array(kernel_rows(p, rows, n)[0],
                     dtype=np.int64).reshape(-1, n)
    return _digits(0, p ** len(basis), p, len(basis)) @ basis % p


def _prefixes(p, n, t, a, b):
    """The n x n matrices of prefix ranks [a, b) of a column sweep for
    column t: the other columns hold the n(n - 1) digits of the rank in
    place-value order, and column t is zero."""
    P = np.zeros((b - a, n, n), dtype=np.int64)
    P[:, :, [c for c in range(n) if c != t]] = _digits(
        a, b, p, n * (n - 1)).reshape(b - a, n, n - 1)
    return P


def _column_sweep(p, n, lo, hi, t, solve, mask):
    """The sorted hits in [lo, hi) of a sweep over n x n matrices that
    solves column t from the other columns.

    Those columns are a prefix of n(n - 1) digits in place-value order,
    so prefix order is index order with column t zero, and the prefixes
    that can reach [lo, hi) are a range of ranks (`_first`).  solve(P),
    on a chunk of prefixes P[m] with column t zero, returns triples
    (rows, base, choices): the prefixes rows selects have the candidates
    with column t equal to base[m] + each row of choices, mod p.  mask
    decides a batch of candidates.
    """
    place = _places(p, n * n)

    def rank(bound):
        return _first(bound, p ** (n * (n - 1)), lambda a, b: _prefixes(
            p, n, t, a, b).reshape(b - a, -1), place)

    top = (p - 1) * int(place.reshape(n, n)[:, t].sum())
    q_lo, q_hi = rank(lo - top), rank(hi)
    hits = [np.zeros(0, dtype=place.dtype)]
    for a in range(q_lo, q_hi, _CHUNK):
        P = _prefixes(p, n, t, a, min(q_hi, a + _CHUNK))
        for rows, base, choices in solve(P):
            P_rows = P[rows]
            # about _CHUNK candidates at a time
            step = max(1, _CHUNK // len(choices))
            for s in range(0, len(base), step):
                last = (base[s:s + step, None] + choices) % p
                T = np.repeat(P_rows[s:s + step], len(choices), axis=0)
                T[:, :, t] = last.reshape(-1, n)
                idx = T.reshape(len(T), -1) @ place
                keep = (lo <= idx) & (idx < hi)
                hits.append(idx[keep][mask(T[keep])])
    return np.sort(np.concatenate(hits)).tolist()


def _free(p, n):
    """The solve that solves nothing: column t takes all p^n values, so
    the column sweep scans the whole box."""
    box = _digits(0, p ** n, p, n)
    return lambda P: [(slice(None), np.zeros((len(P), n), dtype=np.int64),
                       box)]


def _defect_solve(p, cn):
    """The phi sweep's solve for phi e_n, n >= 3, from the (e1, e2) defect.

    A hit is a phi whose defect D (see `_defect`) is central.  With w
    as there, on (e1, e2), D(e1, e2) = S - w_n phi e_n, where S is the
    defect of the prefix, whose phi e_n is zero.  That is central
    exactly when phi e_n lies in S / w_n + Z(n) (w_n != 0), or when S
    is central (w_n = 0, and phi e_n is anything).
    """
    n = len(cn)
    centre = _centre(p, cn)
    anything = _digits(0, p ** n, p, n)
    inverse = _reciprocals(p)

    def solve(phi):
        w, s = _defect(p, cn, phi, 0, 1)
        solved = w[:, -1] != 0
        free = ~solved & np.all(s @ cn.reshape(n, -1) % p == 0, axis=1)
        return [(solved, s[solved] * inverse[w[solved, -1]][:, None], centre),
                (free, np.zeros_like(s[free]), anything)]
    return solve


def phi_sweep(p, n, cn_flat, lo, hi):
    """Indices in [lo, hi) whose endomorphism yields a structure product.

    The candidate with index m is the matrix phi with entries the base-p
    digits of m (row major); the product is x.y = {phi x, y} and the first
    bracket is the induced one x.y - y.x + {x, y}.  The hit test is
    module-action alone, as central defects (`_phi_hits`), which decides
    a structure as long as n is a Lie algebra: skew-part holds by
    construction, derivation-action is the Jacobi identity of n, and once
    those hold, module-action makes the induced bracket satisfy Jacobi.
    So a `cn` that is not alternating or fails Jacobi mod p is rejected
    with ValueError; otherwise phi = 0 would count as a hit.

    The sweep is a column sweep (`_column_sweep`) for phi e_n.  A central
    defect on (e1, e2) is the weight-1 Rota-Baxter equation modulo the
    centre Z(n); in dimension 3 it is affine in phi e3 once phi e1 and
    phi e2 are fixed, so it is solved over GF(p) for each of those p^6
    prefixes (`_defect_solve`), and the mask tests the other pairs.  In
    dimensions 1 and 2 nothing is solved: phi e_n takes all p^n values
    and the mask tests every pair, which scans the whole box.  Indices
    outside [0, p^(n^2)) name no candidate.  The modulus must be prime.
    """
    _check_args(p, n)
    cn = _tensor(cn_flat, n, p)
    if (np.any(cn.diagonal()) or np.any((cn + cn.swapaxes(0, 1)) % p)
            or not _jacobi(p, cn[None])[0]):
        raise ValueError("second bracket is not a Lie bracket mod %d" % p)
    pairs = list(combinations(range(n), 2))
    # once e_n is neither e1 nor e2, the solve settles the pair (e1, e2)
    # and the mask tests the others; below that nothing is solved
    solve, masked = ((_free(p, n), pairs) if n < 3
                     else (_defect_solve(p, cn), pairs[1:]))
    return _column_sweep(p, n, lo, hi, n - 1, solve,
                         lambda phi: _phi_hits(p, cn, phi, masked))


def phi_candidate_count(p, n, cn_flat):
    """How many candidates `phi_sweep` builds and masks over its whole
    index range, found by running its solve on every prefix without
    masking: in dimension 3, |Z(n)| for each prefix whose defect the
    solve solves for phi e3, and p^3 for each unsolved prefix with a
    central defect (`_defect_solve`); in dimensions 1 and 2 the whole
    p^(n^2) box."""
    _check_args(p, n)
    if n < 3:
        return p ** (n * n)
    solve = _defect_solve(p, _tensor(cn_flat, n, p))
    count = p ** (n * (n - 1))
    return sum(len(base) * len(choices)
               for a in range(0, count, _CHUNK)
               for _, base, choices in solve(
                   _prefixes(p, n, n - 1, a, min(count, a + _CHUNK))))


def _products_from_digits(p, n, digits, cg, cn, symmetric):
    m = digits.shape[0]
    if not symmetric:
        return digits.reshape(m, n, n, n)
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    off = (cg - cn) % p
    pr = np.zeros((m, n, n, n), dtype=np.int64)
    for q, (i, j) in enumerate(pairs):
        s = digits[:, q * n:(q + 1) * n]
        if i == j:
            pr[:, i, i, :] = s
        else:
            pr[:, i, j, :] = (s + off[i, j]) % p
            pr[:, j, i, :] = s
    return pr


def _solution_space(p, n, cg, cn, symmetric):
    """The digit vectors on which the affine identities hold.

    Those are derivation-action, and skew-part in full mode (symmetric
    mode builds skew-part into every candidate).  Their residuals are
    affine in the digits, so the values at the zero candidate and at the
    k unit candidates give the linear system, which is solved once over
    GF(p).  The columns are ordered least significant digit first, so
    each pivot digit depends only on more significant free digits.
    Returns None when the system is inconsistent, else (free, piv, base,
    coef): the digit positions of the free digits, most significant
    first, and of the pivot digits, and the solution of rank r has the
    free digits f, the base-p digit string of r, and the pivot digits
    (base + f @ coef) mod p.  Rank order is then index order: two
    solutions first differ at a free digit, since the pivot digits above
    it are fixed by the free digits above it.
    """
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    units = np.vstack([np.zeros((1, k), dtype=np.int64),
                       np.eye(k, dtype=np.int64)])
    pr = _products_from_digits(p, n, units, cg, cn, symmetric)
    parts = [_derivation_action(cn, pr)]
    if not symmetric:
        parts.append(_skew(pr, cg, cn))
    res = np.concatenate([r.reshape(k + 1, -1) for r in parts], axis=1)
    # one row per residual entry: the digit columns least significant
    # first (column c is digit k - 1 - c), then the right-hand side
    system = np.unique(np.column_stack([(res[:0:-1] - res[0]).T, -res[0]])
                       % p, axis=0)
    rows, pivots = echelon(p, system[system.any(axis=1)].tolist())
    if k in pivots:
        return None
    rows = np.array(rows, dtype=np.int64).reshape(len(pivots), k + 1)
    free = np.array([c for c in range(k - 1, -1, -1) if c not in pivots],
                    dtype=np.intp)
    piv = np.array(pivots, dtype=np.intp)
    return k - 1 - free, k - 1 - piv, rows[:, k], -rows[:, free].T % p


def _solved(p, space, f):
    """Digit vectors of the solutions whose free digits are the rows of
    f."""
    free, piv, base, coef = space
    digits = np.empty((len(f), free.size + piv.size), dtype=np.int64)
    digits[:, free] = f
    digits[:, piv] = (base + f @ coef) % p
    return digits


def _solution_digits(p, space, lo, hi):
    """Digit vectors of the solutions with ranks in [lo, hi)."""
    return _solved(p, space, _digits(lo, hi, p, space[0].size))


@lru_cache(maxsize=8)
def _product_space(p, n, cg_flat, cn_flat, symmetric):
    """The bracket tensors of a product sweep and its `_solution_space`,
    as read-only arrays.  Memoized on the flat tensors as tuples, so that
    the guard's count and every window of one sweep share one solve."""
    _check_args(p, n)
    cg = _tensor(cg_flat, n, p)
    cn = _tensor(cn_flat, n, p)
    space = _solution_space(p, n, cg, cn, symmetric)
    for array in (cg, cn) + (space or ()):
        array.flags.writeable = False
    return cg, cn, space


def product_solution_count(p, n, cg_flat, cn_flat, symmetric):
    """How many candidates `product_sweep` tests over its whole index
    range, found without sweeping: p^(free digits) of the solved linear
    system, or 0 when it is inconsistent.  The sweep builds c + 1
    tensors for each p^c of them, where c is the number of free digits
    in its last slot, and tests all p^c at once."""
    space = _product_space(p, n, tuple(cg_flat), tuple(cn_flat),
                           symmetric)[2]
    return 0 if space is None else p ** space[0].size


def product_sweep(p, n, cg_flat, cn_flat, symmetric, lo, hi):
    """Indices in [lo, hi) whose product tensor satisfies the pair identities.

    In symmetric mode the digits parametrize the slots (i, j) with i <= j
    as the products e_j . e_i, and the opposite slot is forced to
    e_j . e_i + [e_i, e_j] - {e_i, e_j}, which bakes the skew-part
    identity into every candidate; in full mode the digits are the whole
    tensor.  Derivation-action, and skew-part in full mode, are affine in
    the digits: they are solved over GF(p) (`_solution_space`), and only
    the solutions are tested, in rank order, which is index order, so
    the hits come out sorted and a range [lo, hi) is a range of ranks,
    found by bisection (`_first`).  Every solution satisfies those two
    identities already, so module-action alone decides a hit.

    Module-action is quadratic, but affine in the last slot
    e_n . e_n, the last n digits, once every other slot is fixed
    (`_module_action_residual`).  The free digits of a rank end with
    the c <= n free digits of that slot, its tail; each pivot digit
    depends only on more significant free digits, so the prefix, the
    free digits above the tail, fixes every other slot, and the slot's
    own digits are affine in the tail.  So for each prefix the residual
    is R(t) = R(0) + t A mod p over the p^c tails t: it is computed on
    c + 1 tensors, at tail 0 and at the c unit tails, and tested at
    every tail at once.  An index is computed only for the hits.
    Indices outside [0, p^k) name no candidate.  The modulus must be
    prime.
    """
    cg, cn, space = _product_space(p, n, tuple(cg_flat), tuple(cn_flat),
                                   symmetric)
    if space is None:
        return []
    free = space[0]
    k = free.size + space[1].size
    place = _places(p, k)
    r_lo, r_hi = (_first(bound, p ** free.size,
                         partial(_solution_digits, p, space), place)
                  for bound in (lo, hi))
    c = int(np.count_nonzero(free >= k - n))
    tails = _digits(0, p ** c, p, c)
    corners = np.vstack([np.zeros((1, c), dtype=np.int64),
                         np.eye(c, dtype=np.int64)])
    # the prefixes whose tails meet the ranks [r_lo, r_hi), about
    # _CHUNK tested candidates at a time
    q_hi = -(-r_hi // len(tails))
    step = max(1, _CHUNK // len(tails))
    hits = []
    for a in range(r_lo // len(tails), q_hi, step):
        f = _digits(a, min(q_hi, a + step), p, free.size - c)
        m = len(f)
        points = np.hstack([np.repeat(f, c + 1, axis=0),
                            np.tile(corners, (m, 1))])
        pr = _products_from_digits(p, n, _solved(p, space, points), cg, cn,
                                   symmetric)
        R = _module_action_residual(cg, pr).reshape(m, c + 1, -1) % p
        # R(t) = R(0) + t A mod p, where row u of A is R(e_u) - R(0)
        R[:, 1:] -= R[:, :1]
        box = tails @ R[:, 1:] + R[:, :1]
        box %= p
        rows, tail = np.nonzero(~box.any(axis=2))
        idx = _solved(p, space, np.hstack([f[rows], tails[tail]])) @ place
        hits.extend(idx[(lo <= idx) & (idx < hi)].tolist())
    return hits


def _dets(T, n):
    if n == 1:
        return T[:, 0, 0]
    if n == 2:
        return T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    return (T[:, 0, 0] * (T[:, 1, 1] * T[:, 2, 2] - T[:, 1, 2] * T[:, 2, 1])
            - T[:, 0, 1] * (T[:, 1, 0] * T[:, 2, 2] - T[:, 1, 2] * T[:, 2, 0])
            + T[:, 0, 2] * (T[:, 1, 0] * T[:, 2, 1] - T[:, 1, 1] * T[:, 2, 0]))


def _adjugates(T, n):
    """adj(T) of each matrix T[m], so that T adj(T) = det(T) I.  In
    dimension 3 the columns of adj(T) are the cross products of the rows
    of T taken in cyclic order."""
    if n == 1:
        return np.ones_like(T)
    if n == 2:
        return np.stack([np.stack([T[:, 1, 1], -T[:, 0, 1]], axis=1),
                         np.stack([-T[:, 1, 0], T[:, 0, 0]], axis=1)], axis=1)
    r0, r1, r2 = T[:, 0], T[:, 1], T[:, 2]
    return np.stack([np.cross(r1, r2), np.cross(r2, r0), np.cross(r0, r1)],
                    axis=2)


def inverse_matrices(p, n, mats):
    """The inverses mod p of n x n matrices, each given and returned as a
    flat row-major int list: adj(T) / det(T) over GF(p), in one pass.

    Every inverse is checked against T T^-1 = I mod p in the same pass; a
    singular matrix raises ValueError, since it has no inverse to return.
    The modulus must be prime.
    """
    _check_args(p, n)
    T = np.array(mats, dtype=np.int64).reshape(-1, n, n) % p
    dets = _dets(T, n) % p
    if not dets.all():
        raise ValueError("matrix %d of the batch is singular mod %d"
                         % (int(np.argmin(dets != 0)), p))
    inv = _adjugates(T, n) % p * _reciprocals(p)[dets][:, None, None] % p
    if np.any(T @ inv % p != np.eye(n, dtype=np.int64)):
        raise ValueError("adjugate inverse failed T T^-1 = I mod %d" % p)
    return inv.reshape(-1, n * n).tolist()


def _slot_solve(p, C, a, b, t):
    """The automorphism sweep's solve for T e_t, given C(e_a, e_b)_t != 0
    with t outside {a, b}: C(T e_a, T e_b) = sum_s C(e_a, e_b)_s T e_s is
    affine in T e_t once the other columns are fixed."""
    scale = pow(int(C[a, b, t]), -1, p)

    def solve(T):
        rhs = (np.einsum("mk,ml,klr->mr", T[:, :, a], T[:, :, b], C)
               - T @ C[a, b]) % p
        return [(slice(None), rhs * scale, np.zeros((1, len(C)),
                                                    dtype=np.int64))]
    return solve


def _invariance_slot(p, n, tensors):
    """The nonzero tensors of an automorphism sweep, as (n, n, n) arrays
    (zero tensors are preserved by every T), and the first slot
    (C, a, b, t) with C(e_a, e_b)_t != 0 and t outside {a, b}, which
    `_slot_solve` solves for T e_t, or None when there is none."""
    _check_args(p, n)
    ts = [C for C in (_tensor(t, n, p) for t in tensors) if C.any()]
    slot = next(((C, a, b, t) for C in ts
                 for a, b, t in permutations(range(n), 3) if C[a, b, t]),
                None)
    return ts, slot


def automorphism_candidate_count(p, n, tensors):
    """How many candidates `gl_invariance_sweep` builds and masks over
    its whole index range, found without sweeping: one per prefix of the
    other n(n - 1) entries when a slot solves a column, else the whole
    p^(n^2) box."""
    slot = _invariance_slot(p, n, tensors)[1]
    return p ** (n * (n - 1) if slot is not None else n * n)


def gl_invariance_sweep(p, n, tensors, lo, hi):
    """Indices in [lo, hi) of the invertible matrices T preserving every
    flat tensor C in `tensors`: C(T x, T y) = T C(x, y) on all basis
    pairs.

    Zero tensors are preserved by every T and are dropped.  The sweep is
    a column sweep (`_column_sweep`): the first slot with
    C(e_a, e_b)_t != 0 and t outside {a, b}, which needs dimension 3,
    solves T e_t (`_slot_solve`), one candidate per prefix.  Without one,
    T e_n takes all p^n values (`_free`), which scans the whole box
    (`automorphism_candidate_count` counts either).  Each candidate is
    tested for det T != 0 and for invariance of every tensor.  The
    modulus must be prime.
    """
    ts, slot = _invariance_slot(p, n, tensors)

    def preserved(T):
        ok = _dets(T, n) % p != 0
        for C in ts:
            S = T[ok]
            lhs = np.einsum("mki,klr->milr", S, C) % p
            lhs = np.einsum("milr,mlj->mijr", lhs, S) % p
            # both sides are reduced: the difference is 0 mod p only
            # where it is 0
            lhs -= np.einsum("mrs,ijs->mijr", S, C) % p
            ok[ok] = ~lhs.any(axis=(1, 2, 3))
        return ok

    if slot is None:
        t, solve = n - 1, _free(p, n)
    else:
        t, solve = slot[3], _slot_solve(p, *slot)
    return _column_sweep(p, n, lo, hi, t, solve, preserved)
