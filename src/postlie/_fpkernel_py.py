"""Vectorized fallback implementations of the finite-field sweep kernels.

Same contracts as the compiled module `_fpkernel`: candidates are indexed
by base-p digit strings (big-endian over row-major entries), tensors are
flat int lists of length n^3 with T[(i*n + j)*n + k] the k-th component of
the (i, j) slot, and every survivor of a vectorized filter is re-verified
with the plain-int checkers below before being returned, so the numpy
layer is never the sole authority on a hit.
"""

import numpy as np

NAME = "python"

_CHUNK = 1 << 14


def _check_args(p, n):
    if n < 1 or n > 3:
        raise ValueError("kernels support dimensions 1..3, got %d" % n)
    if p < 2 or p >= 2 ** 16:
        raise ValueError("modulus out of range: %d" % p)


def _check_flat(flat, n):
    k = n * n * n
    if len(flat) != k:
        raise ValueError("flat tensor must have length %d" % k)


def _digits(lo, hi, p, k):
    idx = np.arange(lo, hi, dtype=np.int64)
    shifts = p ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (idx[:, None] // shifts) % p


def _tensor(flat, n, p):
    return np.array(flat, dtype=np.int64).reshape(n, n, n) % p


def jacobi_ok(p, n, c):
    """Plain-int Jacobi check of a flat bracket tensor."""
    _check_args(p, n)
    _check_flat(c, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                for r in range(n):
                    s = 0
                    for t in range(n):
                        s += c[(i * n + j) * n + t] * c[(t * n + k) * n + r]
                        s += c[(j * n + k) * n + t] * c[(t * n + i) * n + r]
                        s += c[(k * n + i) * n + t] * c[(t * n + j) * n + r]
                    if s % p:
                        return False
    return True


def verify_structure(p, n, cg, cn, pr):
    """Plain-int scan of the three pair identities on flat tensors."""
    _check_args(p, n)
    for flat in (cg, cn, pr):
        _check_flat(flat, n)
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                d = (pr[(i * n + j) * n + k] - pr[(j * n + i) * n + k]
                     - cg[(i * n + j) * n + k] + cn[(i * n + j) * n + k])
                if d % p:
                    return False
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for r in range(n):
                    lhs = 0
                    rhs = 0
                    for t in range(n):
                        lhs += cg[(i * n + j) * n + t] * pr[(t * n + k) * n + r]
                        rhs += pr[(j * n + k) * n + t] * pr[(i * n + t) * n + r]
                        rhs -= pr[(i * n + k) * n + t] * pr[(j * n + t) * n + r]
                    if (lhs - rhs) % p:
                        return False
    for i in range(n):
        for j in range(n):
            for k in range(j + 1, n):
                for r in range(n):
                    lhs = 0
                    rhs = 0
                    for t in range(n):
                        lhs += cn[(j * n + k) * n + t] * pr[(i * n + t) * n + r]
                        rhs += pr[(i * n + j) * n + t] * cn[(t * n + k) * n + r]
                        rhs += pr[(i * n + k) * n + t] * cn[(j * n + t) * n + r]
                    if (lhs - rhs) % p:
                        return False
    return True


def _pair_filter(p, cn, pr, br):
    """Vectorized module-action + derivation-action masks (g = br)."""
    lhs = np.einsum("mijt,mtkr->mijkr", br, pr) % p
    rhs = (np.einsum("mjkt,mitr->mijkr", pr, pr)
           - np.einsum("mikt,mjtr->mijkr", pr, pr)) % p
    ok = np.all((lhs - rhs) % p == 0, axis=(1, 2, 3, 4))
    lhs = np.einsum("jkt,mitr->mijkr", cn, pr) % p
    rhs = (np.einsum("mijt,tkr->mijkr", pr, cn)
           + np.einsum("mikt,jtr->mijkr", pr, cn)) % p
    ok &= np.all((lhs - rhs) % p == 0, axis=(1, 2, 3, 4))
    return ok


def _jacobi_filter(p, br):
    cyc = np.einsum("mijt,mtkr->mijkr", br, br)
    cyc = cyc + cyc.transpose(0, 2, 3, 1, 4) + cyc.transpose(0, 3, 1, 2, 4)
    return np.all(cyc % p == 0, axis=(1, 2, 3, 4))


def phi_sweep(p, n, cn_flat, lo, hi):
    """Indices in [lo, hi) whose endomorphism yields a structure product.

    The candidate with index m is the matrix phi with entries the base-p
    digits of m (row major); the product is x.y = {phi x, y}, the first
    bracket is the induced one x.y - y.x + {x, y}, and the hit test is
    that the induced bracket satisfies Jacobi and the pair identities
    hold.  Skew-part holds by construction.
    """
    _check_args(p, n)
    cn = _tensor(cn_flat, n, p)
    hits = []
    for a in range(lo, hi, _CHUNK):
        b = min(hi, a + _CHUNK)
        phi = _digits(a, b, p, n * n).reshape(b - a, n, n)
        pr = np.einsum("mki,kjr->mijr", phi, cn) % p
        br = (pr - pr.transpose(0, 2, 1, 3) + cn[None, :, :, :]) % p
        mask = _jacobi_filter(p, br) & _pair_filter(p, cn, pr, br)
        for off in np.nonzero(mask)[0]:
            idx = a + int(off)
            prf = [int(v) for v in pr[off].reshape(-1)]
            brf = [int(v) for v in br[off].reshape(-1)]
            if jacobi_ok(p, n, brf) and verify_structure(p, n, brf, cn_flat,
                                                         prf):
                hits.append(idx)
    return hits


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


def product_sweep(p, n, cg_flat, cn_flat, symmetric, lo, hi):
    """Indices in [lo, hi) whose product tensor satisfies the pair identities.

    In symmetric mode the digits parametrize the slots (i, j) with i <= j
    as the products e_j . e_i, and the opposite slot is forced to
    e_j . e_i + [e_i, e_j] - {e_i, e_j}, which bakes the skew-part
    identity into every candidate; in full mode the digits are the whole
    tensor and skew-part is scanned like the other identities.
    """
    _check_args(p, n)
    cg = _tensor(cg_flat, n, p)
    cn = _tensor(cn_flat, n, p)
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    hits = []
    for a in range(lo, hi, _CHUNK):
        b = min(hi, a + _CHUNK)
        digits = _digits(a, b, p, k)
        pr = _products_from_digits(p, n, digits, cg, cn, symmetric)
        ok = np.ones(b - a, dtype=bool)
        if not symmetric:
            skew = (pr - pr.transpose(0, 2, 1, 3) - cg[None] + cn[None]) % p
            ok &= np.all(skew == 0, axis=(1, 2, 3))
        ok &= _pair_filter(p, cn, pr, np.broadcast_to(cg, pr.shape))
        for woff in np.nonzero(ok)[0]:
            idx = a + int(woff)
            prf = [int(v) for v in pr[woff].reshape(-1)]
            if verify_structure(p, n, cg_flat, cn_flat, prf):
                hits.append(idx)
    return hits


def _dets(T, n):
    if n == 1:
        return T[:, 0, 0]
    if n == 2:
        return T[:, 0, 0] * T[:, 1, 1] - T[:, 0, 1] * T[:, 1, 0]
    return (T[:, 0, 0] * (T[:, 1, 1] * T[:, 2, 2] - T[:, 1, 2] * T[:, 2, 1])
            - T[:, 0, 1] * (T[:, 1, 0] * T[:, 2, 2] - T[:, 1, 2] * T[:, 2, 0])
            + T[:, 0, 2] * (T[:, 1, 0] * T[:, 2, 1] - T[:, 1, 1] * T[:, 2, 0]))


def gl_invariance_sweep(p, n, tensors, lo, hi):
    """Indices of invertible matrices T preserving every flat tensor C in
    `tensors`: C(T x, T y) = T C(x, y) on all basis pairs."""
    _check_args(p, n)
    if len(tensors) > 8:
        raise ValueError("at most 8 tensors per sweep")
    ts = [_tensor(t, n, p) for t in tensors]
    hits = []
    for a in range(lo, hi, _CHUNK):
        b = min(hi, a + _CHUNK)
        T = _digits(a, b, p, n * n).reshape(b - a, n, n)
        ok = _dets(T, n) % p != 0
        for C in ts:
            lhs = np.einsum("mki,klr->milr", T, C) % p
            lhs = np.einsum("milr,mlj->mijr", lhs, T) % p
            rhs = np.einsum("mrs,ijs->mijr", T, C) % p
            ok &= np.all((lhs - rhs) % p == 0, axis=(1, 2, 3))
        hits.extend(a + int(off) for off in np.nonzero(ok)[0])
    return hits
