"""The finite-field sweep kernels, vectorized in numpy.

Candidates are indexed by base-p digit strings (big-endian over
row-major entries), and tensors are flat int lists of length n^3 with
T[(i*n + j)*n + k] the k-th component of the (i, j) slot.  Dimensions
are 1..3, and the sweeps take prime moduli only, since they solve their
affine identities over GF(p).  Indices outside [0, p^k) name no
candidate, so a sweep returns no hits there, and inside it returns the
same sorted hits for any cut of the range into pieces.  `phi_sweep`
raises ValueError when its bracket is not a Lie bracket mod p.

Each identity is stated once over a batch of tensors, on the basis
tuples i < j (and i < j < k for Jacobi): Jacobi and module-action as
masks, skew-part and derivation-action as residuals that `_vanishes`
turns into masks.  Those two residuals are affine in the product
tensor, so `product_sweep` reads its linear system off the same
statements, scans only the candidates that solve it and masks them with
module-action alone; `verify_structure` tests all three.  In dimension 3
`phi_sweep` and `gl_invariance_sweep` each solve one identity that is
affine in one column of the candidate matrix once the other two are
fixed (`_solved_sweep`).  Sweep hits are not checked again here:
`search` re-verifies every hit in exact arithmetic, so the numpy layer
is never the sole authority on a hit.  `inverse_matrices` inverts a
batch of matrices over GF(p) by their adjugates, for the automorphisms
that `search.orbit_reduce` conjugates by.

`BACKEND` (equal to `NAME`) names the implementation that search results
and reports record, and `backends()` lists every kernel module, which the
benchmark script and the kernel tests iterate over; this module is the
only one.
"""

import sys
from itertools import combinations, permutations

import numpy as np

from .fields import GF, is_prime
from .linalg import Matrix, nullspace, rref

NAME = BACKEND = "python"

_CHUNK = 1 << 14


def backends():
    """Every kernel module; there is one."""
    return [sys.modules[__name__]]


def _check_args(p, n):
    if n < 1 or n > 3:
        raise ValueError("kernels support dimensions 1..3, got %d" % n)
    if p < 2 or p >= 2 ** 16:
        raise ValueError("modulus out of range: %d" % p)


def _digits(lo, hi, p, k):
    idx = np.arange(lo, hi, dtype=np.int64)
    shifts = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // shifts) % p


def _tensor(flat, n, p):
    if len(flat) != n ** 3:
        raise ValueError("flat tensor must have length %d" % n ** 3)
    return np.array(flat, dtype=np.int64).reshape(n, n, n) % p


def _increasing(n, r):
    """Index arrays of the strictly increasing r-tuples of basis indices."""
    tuples = np.array(list(combinations(range(n), r)), dtype=np.intp)
    return tuples.reshape(-1, r).T


def _vanishes(p, delta):
    """Per candidate m: every entry of delta[m] is 0 mod p."""
    return np.all(delta % p == 0, axis=tuple(range(1, delta.ndim)))


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


def _module_action(p, br, pr):
    """Module-action: [x, y].z = x.(y.z) - y.(x.z) on x = e_i, y = e_j,
    i < j, where br[m] is the first bracket [,] of candidate m.  The
    matrix pr[m, i] is the transpose of L(e_i): v -> e_i . v."""
    i, j = _increasing(pr.shape[-1], 2)
    return _vanishes(p, np.einsum("mqt,mtkr->mqkr", br[:, i, j], pr)
                     - pr[:, j] @ pr[:, i] + pr[:, i] @ pr[:, j])


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
            & _module_action(p, np.broadcast_to(cg, pr.shape), pr)
            & _vanishes(p, _derivation_action(cn, pr)))


def _scan(lo, hi, mask):
    """Indices in [lo, hi) where mask(a, b), a boolean array over the
    chunk [a, b), holds."""
    hits = []
    for a in range(lo, hi, _CHUNK):
        b = min(hi, a + _CHUNK)
        hits.extend(a + int(off) for off in np.nonzero(mask(a, b))[0])
    return hits


def jacobi_ok(p, n, c):
    """Jacobi check of a flat bracket tensor."""
    _check_args(p, n)
    return bool(_jacobi(p, _tensor(c, n, p)[None])[0])


def verify_structure(p, n, cg, cn, pr):
    """Check of the three pair identities on flat tensors."""
    _check_args(p, n)
    cg, cn, pr = (_tensor(flat, n, p) for flat in (cg, cn, pr))
    return bool(_structure(p, cg, cn, pr[None])[0])


def _phi_hits(p, cn, phi, pairs):
    """Per matrix phi[m] (column i is phi e_i): the defect
    D(x, y) = {phi x, phi y} - phi({phi x, y} + {x, phi y} + {x, y}) is
    central on every basis pair (e_i, e_j) in pairs.

    By Jacobi of n, module-action of x.y = {phi x, y} against its
    induced bracket reads {z, D(x, y)} = 0 for all z, and D is
    antisymmetric, so over all pairs i < j this is module-action."""
    ok = np.ones(len(phi), dtype=bool)
    for i, j in pairs:
        f = phi[ok]
        x, y = f[:, :, i], f[:, :, j]
        w = (x @ cn[:, j] + y @ cn[i] + cn[i, j]) % p
        d = (np.einsum("mk,ml,klr->mr", x, y, cn)
             - np.einsum("mrk,mk->mr", f, w)) % p
        ok[ok] = np.all(d @ cn.reshape(len(cn), -1) % p == 0, axis=1)
    return ok


def _centre(p, cn):
    """Every element of Z(n) mod p, one per row, from a basis computed
    exactly over GF(p): z is central when {z, e_j} = 0 for every j."""
    n = cn.shape[0]
    rows = cn.transpose(1, 2, 0).reshape(n * n, n).tolist()
    basis = np.array([[v.a for v in z]
                      for z in nullspace(Matrix(GF(p), rows))],
                     dtype=np.int64).reshape(-1, n)
    return _digits(0, p ** len(basis), p, len(basis)) @ basis % p


def _solved_sweep(p, lo, hi, t, solve, mask):
    """The sorted hits in [lo, hi) of a dim-3 sweep that solves column t
    of its candidate matrices from the other two.

    Those two columns are a prefix of six digits, x the lower-numbered
    column and y the other, each digit in place-value order, so prefix
    order is index order with column t zero, and the prefixes that can
    reach [lo, hi) form a range, found by bisection.  solve(x, y), on a
    chunk of prefixes, returns triples (rows, base, choices): the
    prefixes that rows selects have the candidates with column t equal
    to base[m] + each row of choices.  mask decides a batch of
    candidates.
    """
    # place[r, c]: the place value of the digit T[r, c] in an index
    place = p ** np.arange(8, -1, -1, dtype=np.int64).reshape(3, 3)
    fixed = [c for c in range(3) if c != t]

    def columns(a, b):
        """Columns x and y of the prefixes in [a, b), as (m, 3, 2)."""
        return _digits(a, b, p, 6).reshape(b - a, 3, 2)

    def first_prefix(bound):
        """The first prefix whose own digits place it at bound or above."""
        a, b = 0, p ** 6
        while a < b:
            mid = (a + b) // 2
            if np.sum(columns(mid, mid + 1)[0] * place[:, fixed]) < bound:
                a = mid + 1
            else:
                b = mid
        return a

    hits = []
    q_lo = first_prefix(lo - (p - 1) * place[:, t].sum())
    q_hi = first_prefix(hi)
    for a in range(q_lo, q_hi, _CHUNK):
        cols = columns(a, min(q_hi, a + _CHUNK))
        for rows, base, choices in solve(cols[..., 0], cols[..., 1]):
            cols_rows = cols[rows]
            # about _CHUNK candidates at a time
            step = max(1, _CHUNK // len(choices))
            for s in range(0, len(base), step):
                last = (base[s:s + step, None] + choices) % p
                m, c = last.shape[:2]
                T = np.empty((m * c, 3, 3), dtype=np.int64)
                T[:, :, fixed] = np.repeat(cols_rows[s:s + step], c, axis=0)
                T[:, :, t] = last.reshape(m * c, 3)
                idx = np.einsum("mrc,rc->m", T, place)
                keep = (lo <= idx) & (idx < hi)
                hits.extend(idx[keep][mask(T[keep])].tolist())
    return sorted(hits)


def _solved_phi_sweep(p, cn, lo, hi):
    """The dim-3 phi sweep, solving the (e1, e2) defect for phi e3.

    A hit is a phi whose defect D (see `_phi_hits`) is central.  Fix
    the columns a = phi e1 and b = phi e2, a prefix of six digits, and
    let w = {a, e2} + {e1, b} + {e1, e2}.  D(e1, e2) is
    S - w_3 phi e3 with S = {a, b} - w_1 a - w_2 b, so it is central
    exactly when phi e3 lies in S / w_3 + Z(n) (w_3 != 0), or when S is
    central and phi e3 is anything (w_3 = 0).  Only those candidates are
    built, and each one is decided by the defects D(e1, e3) and
    D(e2, e3).
    """
    centre = _centre(p, cn)
    anything = _digits(0, p ** 3, p, 3)
    inverse = np.array([0] + [pow(v, -1, p) for v in range(1, p)],
                       dtype=np.int64)

    def solve(x, y):
        w = (x @ cn[:, 1] + y @ cn[0] + cn[0, 1]) % p
        s = (np.einsum("mk,ml,klr->mr", x, y, cn)
             - w[:, :1] * x - w[:, 1:2] * y) % p
        solved = w[:, 2] != 0
        free = ~solved & np.all(s @ cn.reshape(3, -1) % p == 0, axis=1)
        return [(solved, s[solved] * inverse[w[solved, 2]][:, None], centre),
                (free, np.zeros_like(s[free]), anything)]
    return _solved_sweep(p, lo, hi, 2, solve,
                         lambda phi: _phi_hits(p, cn, phi, ((0, 2), (1, 2))))


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

    In dimension 3, a central defect on (e1, e2) is the weight-1
    Rota-Baxter equation modulo the centre Z(n); it is affine in phi e3
    once phi e1 and phi e2 are fixed, so it is solved over GF(p) for each
    of those p^6 prefixes and only its solutions are masked
    (`_solved_phi_sweep`).  Dimensions 1 and 2 scan the whole box, at
    most p^4 candidates.  Either way the hits are sorted, and a range
    [lo, hi) gives exactly the hits in it.  Indices outside [0, p^(n^2))
    name no candidate.  The modulus must be prime.
    """
    _check_args(p, n)
    if not is_prime(p):
        raise ValueError("phi sweeps solve over GF(p); modulus %d is not "
                         "prime" % p)
    cn = _tensor(cn_flat, n, p)
    if (np.any(cn.diagonal()) or np.any((cn + cn.swapaxes(0, 1)) % p)
            or not _jacobi(p, cn[None])[0]):
        raise ValueError("second bracket is not a Lie bracket mod %d" % p)
    if n == 3:
        return _solved_phi_sweep(p, cn, lo, hi)
    return _scan(max(lo, 0), min(hi, p ** (n * n)), lambda a, b: _phi_hits(
        p, cn, _digits(a, b, p, n * n).reshape(b - a, n, n),
        combinations(range(n), 2)))


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
    R, pivots = rref(Matrix(GF(p), system[system.any(axis=1)].tolist()))
    if k in pivots:
        return None
    rows = np.array([[v.a for v in R.row(r)] for r in range(len(pivots))],
                    dtype=np.int64).reshape(len(pivots), k + 1)
    free = np.array([c for c in range(k - 1, -1, -1) if c not in pivots],
                    dtype=np.intp)
    piv = np.array(pivots, dtype=np.intp)
    return k - 1 - free, k - 1 - piv, rows[:, k], -rows[:, free].T % p


def _solution_digits(p, space, lo, hi):
    """Digit vectors of the solutions with ranks in [lo, hi)."""
    free, piv, base, coef = space
    digits = np.empty((hi - lo, free.size + piv.size), dtype=np.int64)
    digits[:, free] = f = _digits(lo, hi, p, free.size)
    digits[:, piv] = (base + f @ coef) % p
    return digits


def product_sweep(p, n, cg_flat, cn_flat, symmetric, lo, hi):
    """Indices in [lo, hi) whose product tensor satisfies the pair identities.

    In symmetric mode the digits parametrize the slots (i, j) with i <= j
    as the products e_j . e_i, and the opposite slot is forced to
    e_j . e_i + [e_i, e_j] - {e_i, e_j}, which bakes the skew-part
    identity into every candidate; in full mode the digits are the whole
    tensor.  Derivation-action, and skew-part in full mode, are affine in
    the digits: they are solved over GF(p) (`_solution_space`), and only
    the solutions are scanned, in rank order, which is index order, so
    the hits come out sorted and a range [lo, hi) is a range of ranks,
    found by bisection.  Module-action is quadratic and stays a mask, and
    it is the only identity the mask tests: every solution satisfies the
    other two already.  Indices outside [0, p^k) name no candidate.  The
    modulus must be prime.
    """
    _check_args(p, n)
    if not is_prime(p):
        raise ValueError("product sweeps solve over GF(p); modulus %d is "
                         "not prime" % p)
    cg = _tensor(cg_flat, n, p)
    cn = _tensor(cn_flat, n, p)
    space = _solution_space(p, n, cg, cn, symmetric)
    if space is None:
        return []
    k = space[0].size + space[1].size
    # index = digits @ place, in Python ints where int64 could overflow
    place = np.array([p ** (k - 1 - t) for t in range(k)],
                     dtype=np.int64 if p ** k < 2 ** 63 else object)

    def first_rank(lo):
        """The rank of the first solution with index at least lo."""
        a, b = 0, p ** space[0].size
        while a < b:
            mid = (a + b) // 2
            if _solution_digits(p, space, mid, mid + 1)[0] @ place < lo:
                a = mid + 1
            else:
                b = mid
        return a

    hits = []
    r_lo, r_hi = first_rank(lo), first_rank(hi)
    for a in range(r_lo, r_hi, _CHUNK):
        digits = _solution_digits(p, space, a, min(r_hi, a + _CHUNK))
        pr = _products_from_digits(p, n, digits, cg, cn, symmetric)
        ok = _module_action(p, np.broadcast_to(cg, pr.shape), pr)
        hits.extend((digits[ok] @ place).tolist())
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
    if not is_prime(p):
        raise ValueError("inverses over GF(p) need a prime modulus, got %d"
                         % p)
    T = np.array(mats, dtype=np.int64).reshape(-1, n, n) % p
    dets = _dets(T, n) % p
    if not dets.all():
        raise ValueError("matrix %d of the batch is singular mod %d"
                         % (int(np.argmin(dets != 0)), p))
    reciprocal = np.array([0] + [pow(v, -1, p) for v in range(1, p)],
                          dtype=np.int64)
    inv = _adjugates(T, n) % p * reciprocal[dets][:, None, None] % p
    if np.any(T @ inv % p != np.eye(n, dtype=np.int64)):
        raise ValueError("adjugate inverse failed T T^-1 = I mod %d" % p)
    return inv.reshape(-1, n * n).tolist()


def gl_invariance_sweep(p, n, tensors, lo, hi):
    """Indices in [lo, hi) of the invertible matrices T preserving every
    flat tensor C in `tensors`: C(T x, T y) = T C(x, y) on all basis
    pairs.

    Zero tensors are preserved by every T and are dropped.  In dimension
    3, a slot with C(e_a, e_b)_t != 0 and t outside {a, b} makes
    C(T e_a, T e_b) = sum_s C(e_a, e_b)_s T e_s affine in T e_t once
    T e_a and T e_b are fixed: it is solved for T e_t, so each of the
    p^6 prefixes has one candidate (`_solved_sweep`).  Without such a
    slot, and in dimensions 1 and 2, the whole box is scanned.  Either
    way each candidate is tested for det T != 0 and for invariance of
    every tensor.  The modulus must be prime.
    """
    _check_args(p, n)
    if len(tensors) > 8:
        raise ValueError("at most 8 tensors per sweep")
    if not is_prime(p):
        raise ValueError("automorphism sweeps solve over GF(p); modulus %d "
                         "is not prime" % p)
    ts = [C for C in (_tensor(t, n, p) for t in tensors) if C.any()]

    def preserved(T):
        ok = _dets(T, n) % p != 0
        for C in ts:
            S = T[ok]
            lhs = np.einsum("mki,klr->milr", S, C) % p
            lhs = np.einsum("milr,mlj->mijr", lhs, S) % p
            rhs = np.einsum("mrs,ijs->mijr", S, C) % p
            ok[ok] = np.all((lhs - rhs) % p == 0, axis=(1, 2, 3))
        return ok

    slots = [(C, a, b, t) for C in ts if n == 3
             for a, b, t in permutations(range(3)) if C[a, b, t]]
    if not slots:
        return _scan(max(lo, 0), min(hi, p ** (n * n)), lambda a, b:
                     preserved(_digits(a, b, p, n * n).reshape(b - a, n, n)))
    C, a, b, t = slots[0]
    scale = pow(int(C[a, b, t]), -1, p)

    def solve(x, y):
        ua, ub = (x, y) if a < b else (y, x)
        rhs = (np.einsum("mk,ml,klr->mr", ua, ub, C)
               - C[a, b, a] * ua - C[a, b, b] * ub) % p
        return [(slice(None), rhs * scale, np.zeros((1, 3), dtype=np.int64))]
    return _solved_sweep(p, lo, hi, t, solve, preserved)
