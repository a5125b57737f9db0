"""Tests for the finite-field sweep kernels.

The kernels raise ValueError on bad dimensions, moduli and tensor
lengths, take prime moduli only in the sweeps, refuse a phi sweep over a
bracket that is not a Lie bracket mod p, and return the same sorted hits
for any cut of a sweep range, none outside it.  Expected answers come
from the exact-arithmetic layer, from closed-form counts, or from the
box scans kept here that the solved sweeps replaced, never from the
sweep under test.
"""

import importlib.util
import io
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie import fpkernel
from postlie.catalog import builtin_algebra, get_entry
from postlie.fields import GF
from postlie.lie import LieAlgebra, center, check_lie_axioms
from postlie.linalg import Matrix, inverse
from postlie.search import flat_bracket_tensor, flat_product_tensor
from postlie.structures import BilinearProduct, check_structure

KERNELS = fpkernel.backends()
KERNEL_IDS = [mod.NAME for mod in KERNELS]


def _flat(field, L):
    return flat_bracket_tensor(L)


def _r2_flat(p):
    return flat_bracket_tensor(builtin_algebra("r2", field=GF(p)))


def _zero_flat(n):
    return [0] * (n * n * n)


def _random_bracket(rng, n, p):
    """Antisymmetric flat tensor plus the matching sparse table."""
    flat = [0] * (n * n * n)
    table = {}
    for i in range(n):
        for j in range(i + 1, n):
            coeffs = [rng.randrange(p) for _ in range(n)]
            if any(coeffs):
                table[(i, j)] = {k: c for k, c in enumerate(coeffs) if c}
            for k in range(n):
                flat[(i * n + j) * n + k] = coeffs[k]
                flat[(j * n + i) * n + k] = (-coeffs[k]) % p
    return flat, table


def test_backend_registry():
    assert fpkernel.backends() == [fpkernel]
    assert fpkernel.BACKEND == fpkernel.NAME == "python"
    for fn in ("jacobi_ok", "verify_structure", "phi_sweep",
               "product_sweep", "gl_invariance_sweep"):
        assert callable(getattr(fpkernel, fn))


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_jacobi_matches_exact_layer(kern):
    rng = random.Random(4021)
    for p in (2, 3, 5):
        seen = set()
        for _ in range(40):
            flat, table = _random_bracket(rng, 3, p)
            expected = check_lie_axioms(LieAlgebra(GF(p), 3, table)).passed
            assert kern.jacobi_ok(p, 3, flat) is expected
            seen.add(expected)
        # the sample must exercise both outcomes to mean anything
        assert seen == {True, False}


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_jacobi_frozen_cases(kern):
    sl2 = builtin_algebra("sl2", field=GF(5))
    assert kern.jacobi_ok(5, 3, flat_bracket_tensor(sl2)) is True
    assert kern.jacobi_ok(7, 3, _zero_flat(3)) is True
    # [e1,e2]=e3, [e1,e3]=e1 fails Jacobi at (e1,e2,e3)
    bad = LieAlgebra(GF(5), 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    flat = flat_bracket_tensor(bad)
    assert kern.jacobi_ok(5, 3, flat) is False
    # dimension 2 has no triples, so any table passes vacuously
    assert kern.jacobi_ok(3, 2, [1] * 8) is True


# (g, n) bracket pairs for the differential test of verify_structure;
# non-abelian n makes derivation-action a real constraint
VERIFY_PAIRS = (
    ("abelian", "abelian", 1),
    ("r2", "abelian", 2),
    ("r2", "r2", 2),
    ("abelian", "r2", 2),
    ("n3", "n3", 3),
    ("abelian", "n3", 3),
    ("sl2", "sl2", 3),
)


def _named(name, field, dim):
    if name == "abelian":
        return builtin_algebra("abelian", field=field, dim=dim)
    return builtin_algebra(name, field=field)


def _candidate_tensor(rng, mode, p, n, cg, cn):
    """A flat product tensor: fully random (mode 0), or with the skew part
    forced to [x,y] - {x,y} and sparse (mode 1) or rank-one
    x.y = lam(x) lam(y) w (mode 2) symmetric part."""
    if mode == 0:
        return [rng.randrange(p) for _ in range(n ** 3)]
    if mode == 1:
        sym = {(i, j): [rng.randrange(p) if rng.random() < 0.25 else 0
                        for _ in range(n)]
               for i in range(n) for j in range(i, n)}
    else:
        lam = [rng.randrange(p) for _ in range(n)]
        w = [rng.randrange(p) for _ in range(n)]
        sym = {(i, j): [lam[i] * lam[j] * c % p for c in w]
               for i in range(n) for j in range(i, n)}
    flat = [0] * (n ** 3)
    for (i, j), vec in sym.items():
        for k in range(n):
            flat[(j * n + i) * n + k] = vec[k]
            if i != j:
                slot = (i * n + j) * n + k
                flat[slot] = (vec[k] + cg[slot] - cn[slot]) % p
    return flat


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_verify_structure_matches_exact_layer(kern):
    rng = random.Random(977)
    outcomes = set()
    lone_failures = set()
    for g_name, n_name, dim in VERIFY_PAIRS:
        for p in (2, 3, 5, 7):
            F = GF(p)
            g = _named(g_name, F, dim)
            n = _named(n_name, F, dim)
            cg = flat_bracket_tensor(g)
            cn = flat_bracket_tensor(n)
            flats = [[0] * (dim ** 3)]
            flats += [_candidate_tensor(rng, t % 3, p, dim, cg, cn)
                      for t in range(60)]
            for flat in flats:
                table = {(i, j): {k: flat[(i * dim + j) * dim + k]
                                  for k in range(dim)}
                         for i in range(dim) for j in range(dim)}
                report = check_structure(g, n, BilinearProduct(F, dim, table))
                expected = report.passed
                assert kern.verify_structure(p, dim, cg, cn, flat) \
                    is expected, (g_name, n_name, p, flat)
                outcomes.add(expected)
                failed = [item.name for item in report.failures()]
                if len(failed) == 1:
                    lone_failures.add(failed[0])
    # the sample must exercise both outcomes, and reach the module-action
    # and derivation-action scans with the other identities passing
    assert outcomes == {True, False}
    assert {"module-action", "derivation-action"} <= lone_failures


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_verify_structure_catalog_members(kern):
    F = GF(7)
    for entry_id in ("V1", "V5", "V8"):
        entry = get_entry(entry_id)
        for sample in entry.samples:
            pair = entry.build_sample(sample, field=F)
            cg = flat_bracket_tensor(pair.g)
            cn = flat_bracket_tensor(pair.n)
            pr = flat_product_tensor(pair.product)
            assert kern.verify_structure(7, pair.g.dim, cg, cn, pr) is True
            # shifting one off-diagonal slot breaks skew-part for sure
            dim = pair.g.dim
            broken = list(pr)
            slot = (0 * dim + 1) * dim + 0
            broken[slot] = (broken[slot] + 1) % 7
            assert kern.verify_structure(7, dim, cg, cn, broken) is False


def test_gl_sweep_matches_direct_scan():
    p, n = 3, 2
    cg = _r2_flat(p)
    total = p ** (n * n)

    # direct double loop over all 81 matrices as the oracle
    def entry(idx, r, c):
        shift = p ** (n * n - 1 - (r * n + c))
        return (idx // shift) % p

    expect = []
    for idx in range(total):
        T = [[entry(idx, r, c) for c in range(n)] for r in range(n)]
        det = (T[0][0] * T[1][1] - T[0][1] * T[1][0]) % p
        if det == 0:
            continue
        ok = True
        for i in range(n):
            for j in range(n):
                for r in range(n):
                    lhs = sum(cg[(k * n + l) * n + r] * T[k][i] * T[l][j]
                              for k in range(n) for l in range(n)) % p
                    rhs = sum(T[r][s] * cg[(i * n + j) * n + s]
                              for s in range(n)) % p
                    if lhs != rhs:
                        ok = False
        if ok:
            expect.append(idx)
    assert fpkernel.gl_invariance_sweep(p, n, [cg], 0, total) == expect
    zero_hits = fpkernel.gl_invariance_sweep(p, n, [_zero_flat(n)], 0, total)
    assert len(zero_hits) == 48  # |GL_2(F_3)|


BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / \
    "bench_fpkernel.py"


def test_backend_bench_quick_run_agrees():
    # a nonzero return means that a row of the timing script found a hit
    # count other than its closed-form or recorded one
    spec = importlib.util.spec_from_file_location("bench_fpkernel", BENCH)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = io.StringIO()
    assert bench.run(quick=True, out=out) == 0, out.getvalue()


def test_bench_script_runs_from_a_bare_checkout(tmp_path):
    # the command in its docstring, with no PYTHONPATH and run from another
    # directory: the script finds the package of its own checkout
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, str(BENCH), "--quick"],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.startswith("backend: %s" % fpkernel.BACKEND)


def _linear(p, cg, cn, pr):
    """The affine identities the product sweep solves instead of
    scanning."""
    return (fpkernel._vanishes(p, fpkernel._skew(pr, cg, cn))
            & fpkernel._vanishes(p, fpkernel._derivation_action(cn, pr)))


def _box_scan(p, n, cg, cn, symmetric):
    """Indices of the whole digit box where the affine identities hold,
    and where the `_structure` mask holds: the scan the kernel's product
    sweep replaced, kept here as the oracle for its solving.  The masks
    themselves are checked against the exact layer by
    `test_verify_structure_matches_exact_layer`."""
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    total = p ** k
    linear, hits = [], []
    for a in range(0, total, 1 << 15):
        digits = fpkernel._digits(a, min(total, a + (1 << 15)), p, k)
        pr = fpkernel._products_from_digits(p, n, digits, cg, cn, symmetric)
        for found, mask in ((linear, _linear), (hits, fpkernel._structure)):
            found.extend(a + int(m)
                         for m in np.nonzero(mask(p, cg, cn, pr))[0])
    return linear, hits


def _check_solved_sweep(rng, p, n, cg_flat, cn_flat, symmetric):
    """Compare the kernel's product sweep with the box scan, whole and
    in uneven pieces; returns the free-digit count, or None when the
    linear system has no solution."""
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    total = p ** k
    cg = fpkernel._tensor(cg_flat, n, p)
    cn = fpkernel._tensor(cn_flat, n, p)
    case = (p, n, cg_flat, cn_flat, symmetric)
    space = fpkernel._solution_space(p, n, cg, cn, symmetric)
    solved = []
    if space is not None:
        # every solution, in rank order: exactly the box points where the
        # affine identities hold, and already sorted by index
        digits = fpkernel._solution_digits(p, space, 0, p ** space[0].size)
        solved = [sum(d * p ** (k - 1 - t) for t, d in enumerate(row))
                  for row in digits.tolist()]
    linear, expect = _box_scan(p, n, cg, cn, symmetric)
    assert solved == linear, case
    assert fpkernel.product_sweep(p, n, cg_flat, cn_flat, symmetric,
                                0, total) == expect, case
    # uneven pieces, one of them with lo == hi
    cuts = sorted([0, total] + [rng.randrange(total + 1) for _ in range(4)])
    at = rng.randrange(len(cuts))
    cuts.insert(at, cuts[at])
    stitched = []
    for lo, hi in zip(cuts, cuts[1:]):
        stitched.extend(fpkernel.product_sweep(p, n, cg_flat, cn_flat,
                                             symmetric, lo, hi))
    assert stitched == expect, (case, cuts)
    assert fpkernel.product_sweep(p, n, cg_flat, cn_flat, symmetric,
                                total, 0) == []
    return None if space is None else space[0].size


BOX_LIMIT = 400_000
BUILTINS = {1: ("abelian",), 2: ("abelian", "r2"),
            3: ("abelian", "n3", "r3", "sl2")}
# dim-3 boxes (GF(2) only) take about a second each to scan, so only
# these pairs; sl2 is n3 mod 2
DIM3_PAIRS = (("n3", "n3"), ("abelian", "n3"), ("r3", "sl2"))


def test_product_sweep_matches_box_scan_on_builtins():
    rng = random.Random(5150)
    for dim, names in BUILTINS.items():
        pairs = DIM3_PAIRS if dim == 3 else [(g, n) for g in names
                                             for n in names]
        for p in (2, 3, 5, 7):
            F = GF(p)
            for symmetric in (True, False):
                k = dim * dim * (dim + 1) // 2 if symmetric else dim ** 3
                if p ** k > BOX_LIMIT:
                    continue
                for g_name, n_name in pairs:
                    cg = flat_bracket_tensor(_named(g_name, F, dim))
                    cn = flat_bracket_tensor(_named(n_name, F, dim))
                    _check_solved_sweep(rng, p, dim, cg, cn, symmetric)


def test_product_sweep_matches_box_scan_on_random_tables():
    # arbitrary tensors, some not antisymmetric and some with cg = cn
    # (a homogeneous system in symmetric mode), so that systems with no
    # solution, with one, and with no pivot all occur
    rng = random.Random(8093)
    seen = set()
    cases = [(n, p, symmetric) for n in (1, 2) for p in (2, 3, 5, 7)
             for symmetric in (True, False)
             if p ** (n * n * (n + 1) // 2 if symmetric else n ** 3)
             <= BOX_LIMIT]
    for n, p, symmetric in cases * 3 + [(3, 2, True)] * 2:
        k = n * n * (n + 1) // 2 if symmetric else n ** 3
        if rng.random() < 0.5:
            cg = _random_bracket(rng, n, p)[0]
            cn = _random_bracket(rng, n, p)[0]
        else:
            cg = [rng.randrange(p) for _ in range(n ** 3)]
            cn = [rng.randrange(p) for _ in range(n ** 3)]
        if n == 3 or rng.random() < 0.25:
            cg = list(cn)
        free = _check_solved_sweep(rng, p, n, cg, cn, symmetric)
        seen.add("inconsistent" if free is None else
                 "d = 0" if free == 0 else "d = k" if free == k else "cut")
    assert seen == {"inconsistent", "d = 0", "d = k", "cut"}


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_sweep_windows_compose(kern):
    cg = _r2_flat(3)
    cn = _zero_flat(2)
    total = 3 ** 6
    full = kern.product_sweep(3, 2, cg, cn, True, 0, total)
    cuts = [0, 17, 500, 501, 729]
    stitched = []
    for lo, hi in zip(cuts, cuts[1:]):
        stitched.extend(kern.product_sweep(3, 2, cg, cn, True, lo, hi))
    assert stitched == full

    cn3 = flat_bracket_tensor(builtin_algebra("n3", field=GF(2)))
    total = 2 ** 9
    full = kern.phi_sweep(2, 3, cn3, 0, total)
    stitched = (kern.phi_sweep(2, 3, cn3, 0, 100)
                + kern.phi_sweep(2, 3, cn3, 100, total))
    assert stitched == full

    total = 3 ** 4
    full = kern.gl_invariance_sweep(3, 2, [cg], 0, total)
    stitched = (kern.gl_invariance_sweep(3, 2, [cg], 0, 40)
                + kern.gl_invariance_sweep(3, 2, [cg], 40, total))
    assert stitched == full

    # the solved dim-3 automorphism sweep on n3 with {e2, e3} = e1 and
    # with {e1, e3} = e2: the solved column is the first, then the middle
    # one, so its digits interleave with those of the prefix
    total = 3 ** 9
    cuts = [0, 5000, 5001, 12345, total]
    for table in ({(1, 2): {0: 1}}, {(0, 2): {1: 1}}):
        c3 = flat_bracket_tensor(LieAlgebra(GF(3), 3, table))
        full = kern.gl_invariance_sweep(3, 3, [c3], 0, total)
        stitched = []
        for lo, hi in zip(cuts, cuts[1:]):
            stitched.extend(kern.gl_invariance_sweep(3, 3, [c3], lo, hi))
        assert stitched == full
        assert len(full) == 432  # |Aut n3| over GF(3)


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_kernel_argument_errors(kern):
    with pytest.raises(ValueError, match="dimensions"):
        kern.jacobi_ok(5, 4, [0] * 64)
    with pytest.raises(ValueError, match="modulus"):
        kern.jacobi_ok(1, 2, [0] * 8)
    with pytest.raises(ValueError, match="length"):
        kern.jacobi_ok(5, 2, [0] * 7)
    with pytest.raises(ValueError, match="dimensions"):
        kern.verify_structure(5, 0, [], [], [])
    with pytest.raises(ValueError, match="length"):
        kern.verify_structure(5, 2, [0] * 8, [0] * 8, [0] * 9)
    with pytest.raises(ValueError, match="modulus"):
        kern.phi_sweep(1, 2, [0] * 8, 0, 1)
    with pytest.raises(ValueError, match="dimensions"):
        kern.product_sweep(5, 4, [0] * 64, [0] * 64, True, 0, 1)
    with pytest.raises(ValueError, match="modulus"):
        kern.gl_invariance_sweep(0, 2, [[0] * 8], 0, 1)
    with pytest.raises(ValueError, match="tensors"):
        kern.gl_invariance_sweep(3, 2, [[0] * 8] * 9, 0, 1)
    # the phi test is module-action alone, which is exact only over a
    # Lie bracket; anything else must be refused, or phi = 0 would count
    # as a hit
    bad = LieAlgebra(GF(5), 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
    with pytest.raises(ValueError, match="not a Lie bracket"):
        kern.phi_sweep(5, 3, flat_bracket_tensor(bad), 0, 1)
    with pytest.raises(ValueError, match="not a Lie bracket"):
        kern.phi_sweep(5, 2, [0, 0, 1, 0, 1, 0, 0, 0], 0, 1)
    # {e1, e1} = e1 is antisymmetric mod 2 but not alternating
    with pytest.raises(ValueError, match="not a Lie bracket"):
        kern.phi_sweep(2, 1, [1], 0, 1)
    # the sweeps solve their affine identities over GF(p)
    with pytest.raises(ValueError, match="not prime"):
        kern.product_sweep(4, 2, [0] * 8, [0] * 8, True, 0, 1)
    with pytest.raises(ValueError, match="not prime"):
        kern.phi_sweep(4, 3, [0] * 27, 0, 1)
    with pytest.raises(ValueError, match="not prime"):
        kern.gl_invariance_sweep(4, 3, [[0] * 27], 0, 1)


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_sweep_results_are_sorted_ints(kern):
    cn = flat_bracket_tensor(builtin_algebra("n3", field=GF(2)))
    hits = kern.phi_sweep(2, 3, cn, 0, 2 ** 9)
    assert hits == sorted(hits)
    assert all(isinstance(h, int) for h in hits)


def _phi_box_scan(p, n, cn):
    """Indices of every phi in the box whose product x.y = {phi x, y}
    passes the `_module_action` mask: the scan the kernel's dim-3 phi
    sweep replaced, kept here as the oracle for its solving."""
    total = p ** (n * n)
    hits = []
    for a in range(0, total, 1 << 15):
        phi = fpkernel._digits(a, min(total, a + (1 << 15)), p, n * n)
        phi = phi.reshape(-1, n, n)
        pr = np.einsum("mki,kjr->mijr", phi, cn) % p
        br = (pr - pr.swapaxes(1, 2) + cn) % p
        hits.extend(a + int(m) for m in
                    np.nonzero(fpkernel._module_action(p, br, pr))[0])
    return hits


def _seeded_basis_change(rng, F, n):
    while True:
        T = Matrix(F, [[rng.randrange(F.p) for _ in range(n)]
                       for _ in range(n)])
        if inverse(T) is not None:
            return T


def test_phi_sweep_matches_box_scan():
    # this oracle is the check of the solved sweep against the box
    rng = random.Random(6173)
    cases = [(name, p, conj) for p in (2, 3)
             for name in ("abelian", "n3", "r3", "sl2")
             for conj in (False, True)]
    cases += [("sl2", 5, False), ("r3", 5, False)]
    branches = set()
    with_centre = set()
    for name, p, conj in cases:
        F = GF(p)
        L = _named(name, F, 3)
        if conj:
            L = L.change_basis(_seeded_basis_change(rng, F, 3))
        if center(L).dim:
            with_centre.add(name)
        flat = flat_bracket_tensor(L)
        cn = fpkernel._tensor(flat, 3, p)
        total = p ** 9
        expect = _phi_box_scan(p, 3, cn)
        case = (name, p, conj)
        assert fpkernel.phi_sweep(p, 3, flat, 0, total) == expect, case
        # uneven pieces, one of them with lo == hi
        cuts = sorted([0, total] + [rng.randrange(total + 1)
                                    for _ in range(4)])
        at = rng.randrange(len(cuts))
        cuts.insert(at, cuts[at])
        stitched = []
        for lo, hi in zip(cuts, cuts[1:]):
            stitched.extend(fpkernel.phi_sweep(p, 3, flat, lo, hi))
        assert stitched == expect, (case, cuts)
        assert fpkernel.phi_sweep(p, 3, flat, total, 0) == []
        # which branch of the solve each hit came from: w_3, the
        # e3-coefficient of {phi e1, e2} + {e1, phi e2} + {e1, e2}
        phi = fpkernel._digits(0, total, p, 9)[expect].reshape(-1, 3, 3)
        w3 = (phi[:, :, 0] @ cn[:, 1, 2] + phi[:, :, 1] @ cn[0, :, 2]
              + cn[0, 1, 2]) % p
        branches |= {"w3 != 0" if w else "w3 = 0" for w in w3.tolist()}
    assert branches == {"w3 != 0", "w3 = 0"}
    # Z(n) != 0 puts a whole coset of candidates behind each solution
    # (sl2 mod 2 is n3)
    assert {"abelian", "n3"} <= with_centre


def _gl_box_scan(p, n, tensors):
    """Indices of every invertible T in the box that preserves each
    tensor: the scan the dim-3 automorphism sweep replaced, kept here as
    the oracle for its solving."""
    ts = [fpkernel._tensor(t, n, p) for t in tensors]
    total = p ** (n * n)
    hits = []
    for a in range(0, total, 1 << 15):
        T = fpkernel._digits(a, min(total, a + (1 << 15)), p, n * n)
        T = T.reshape(-1, n, n)
        ok = fpkernel._dets(T, n) % p != 0
        for C in ts:
            lhs = np.einsum("mki,klr->milr", T, C) % p
            lhs = np.einsum("milr,mlj->mijr", lhs, T) % p
            rhs = np.einsum("mrs,ijs->mijr", T, C) % p
            ok &= np.all((lhs - rhs) % p == 0, axis=(1, 2, 3))
        hits.extend(a + int(m) for m in np.nonzero(ok)[0])
    return hits


def _has_solvable_slot(flat):
    """Whether {e_a, e_b} has a nonzero e_t-coefficient, t outside {a, b}."""
    return any(flat[(a * 3 + b) * 3 + t] for a, b, t in permutations(range(3)))


def test_gl_sweep_matches_box_scan():
    rng = random.Random(7411)
    branches = set()
    for p in (2, 3):
        F = GF(p)
        names = ("abelian", "n3", "r3", "sl2") if p == 3 else \
            ("abelian", "n3", "r3")
        algebras = [_named(name, F, 3) for name in names]
        # [e1, e2] = e2 and [e1, e3] = -e3: no slot to solve from
        algebras.append(builtin_algebra("r3_lambda", field=F, lam=p - 1))
        std = [flat_bracket_tensor(L) for L in algebras]
        conj = [flat_bracket_tensor(
            L.change_basis(_seeded_basis_change(rng, F, 3)))
            for L in algebras]
        # (g, n) lists where one tensor alone has a slot to solve from
        abelian, n3, r3_lambda = std[0], std[1], std[-1]
        mixed = [[r3_lambda, n3], [n3, abelian], [abelian, conj[1]]]
        for tensors in mixed:
            assert list(map(_has_solvable_slot, tensors)).count(True) == 1
        for tensors in [[flat] for flat in std + conj] + mixed:
            branches.add(any(map(_has_solvable_slot, tensors)))
            total = p ** 9
            expect = _gl_box_scan(p, 3, tensors)
            case = (p, tensors)
            assert fpkernel.gl_invariance_sweep(p, 3, tensors, 0, total) \
                == expect, case
            # uneven pieces, one of them with lo == hi
            cuts = sorted([0, total] + [rng.randrange(total + 1)
                                        for _ in range(4)])
            at = rng.randrange(len(cuts))
            cuts.insert(at, cuts[at])
            stitched = []
            for lo, hi in zip(cuts, cuts[1:]):
                stitched.extend(fpkernel.gl_invariance_sweep(p, 3, tensors,
                                                           lo, hi))
            assert stitched == expect, (case, cuts)
            assert fpkernel.gl_invariance_sweep(p, 3, tensors, total, 0) == []
    assert branches == {True, False}


def test_automorphism_group_orders():
    # closed forms: Aut(sl2) = PGL2(F_p), Aut(n3) is the group of
    # invertible maps of V / Z(n3) (order |GL2(F_p)|) times the p^2 maps
    # of V / Z into Z(n3), and Aut(abelian(3)) is GL3(F_p)
    def count(name, p):
        L = _named(name, GF(p), 3)
        return len(fpkernel.gl_invariance_sweep(p, 3, [flat_bracket_tensor(L)],
                                              0, p ** 9))
    for p in (3, 5, 7):
        assert count("sl2", p) == p * (p * p - 1)
    for p in (2, 3, 5, 7):
        assert count("n3", p) == p ** 2 * (p ** 2 - 1) * (p ** 2 - p)
    for p in (2, 3):
        assert count("abelian", p) == \
            (p ** 3 - 1) * (p ** 3 - p) * (p ** 3 - p ** 2)


# named Lie brackets per dimension, for the property tests below
LIE_NAMES = {1: ("abelian",), 2: ("abelian", "r2"),
             3: ("abelian", "n3", "r3", "r3_lambda", "sl2")}


@st.composite
def bracket_tables(draw, p, n):
    """A bracket over GF(p) of dimension n, as a LieAlgebra: a named Lie
    algebra written in a random basis, or a random alternating table
    (a Lie bracket in dimensions 1 and 2, mostly not in dimension 3)."""
    F = GF(p)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    if draw(st.booleans()):
        return LieAlgebra(F, n, _random_bracket(rng, n, p)[1])
    name = draw(st.sampled_from(LIE_NAMES[n]))
    L = builtin_algebra(name, field=F, dim=n, lam=rng.randrange(p))
    return L.change_basis(_seeded_basis_change(rng, F, n))


def _solution_points(p, n, cg, cn, symmetric, ranks):
    """The products at the given ranks of `_solution_space`, as a batch,
    or None when the affine system has no solution."""
    space = fpkernel._solution_space(p, n, cg, cn, symmetric)
    if space is None:
        return None
    count = p ** space[0].size
    digits = np.vstack([fpkernel._solution_digits(p, space, r % count,
                                                  r % count + 1)
                        for r in ranks])
    return fpkernel._products_from_digits(p, n, digits, cg, cn, symmetric)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_verify_structure_agrees_with_check_structure_property(data):
    # random tables over GF(2, 3, 5, 7) in dims 1-3: the numpy identities
    # and the exact scans decide every product alike
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    g = data.draw(bracket_tables(p, n))
    h = data.draw(bracket_tables(p, n))
    cg, cn = flat_bracket_tensor(g), flat_bracket_tensor(h)
    kind = data.draw(st.sampled_from(["random", "solution", "perturbed"]))
    flat = data.draw(st.lists(st.integers(0, p - 1), min_size=n ** 3,
                              max_size=n ** 3))
    if kind != "random":
        # a point where skew-part and derivation-action hold, so that
        # module-action decides, and then one entry of it changed
        pr = _solution_points(p, n, fpkernel._tensor(cg, n, p),
                              fpkernel._tensor(cn, n, p), False,
                              [data.draw(st.integers(0, 2 ** 32))])
        if pr is not None:
            at = data.draw(st.integers(0, n ** 3 - 1))
            shift = 0 if kind == "solution" else flat[at] or 1
            flat = pr.reshape(-1).tolist()
            flat[at] = (flat[at] + shift) % p
    table = {(i, j): flat[(i * n + j) * n:(i * n + j + 1) * n]
             for i in range(n) for j in range(n)}
    expected = check_structure(g, h, BilinearProduct(GF(p), n, table)).passed
    assert fpkernel.verify_structure(p, n, cg, cn, flat) is expected


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_module_action_mask_decides_solution_points_property(data):
    # `product_sweep` masks its solutions with module-action alone: on
    # every point of `_solution_space` the other two identities hold, so
    # that mask agrees with the full `_structure` test.  Any tensors will
    # do, Lie brackets or not, alternating or not.
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    n = data.draw(st.integers(1, 3))
    symmetric = data.draw(st.booleans())
    cg, cn = (data.draw(st.one_of(
        st.builds(flat_bracket_tensor, bracket_tables(p, n)),
        st.lists(st.integers(0, p - 1), min_size=n ** 3, max_size=n ** 3)))
        for _ in range(2))
    if data.draw(st.booleans()):
        cg = cn
    cg, cn = fpkernel._tensor(cg, n, p), fpkernel._tensor(cn, n, p)
    ranks = data.draw(st.lists(st.integers(0, 2 ** 32), min_size=1,
                               max_size=64))
    pr = _solution_points(p, n, cg, cn, symmetric, ranks)
    if pr is None:
        return
    assert _linear(p, cg, cn, pr).all()
    mask = fpkernel._module_action(p, np.broadcast_to(cg, pr.shape), pr)
    assert np.array_equal(mask, fpkernel._structure(p, cg, cn, pr))


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(1, 3),
       st.lists(st.integers(-20, 20), min_size=9, max_size=9))
def test_inverse_matrices_agree_with_exact_inverse(p, n, entries):
    flat = entries[:n * n]
    exact = inverse(Matrix(GF(p), [flat[r * n:(r + 1) * n]
                                   for r in range(n)]))
    identity = [int(r == c) for r in range(n) for c in range(n)]
    if exact is None:
        with pytest.raises(ValueError, match="singular"):
            fpkernel.inverse_matrices(p, n, [identity, flat])
    else:
        assert fpkernel.inverse_matrices(p, n, [flat, identity]) == \
            [list(exact.raw_flat()), identity]


def test_inverse_matrices_arguments():
    assert fpkernel.inverse_matrices(5, 2, []) == []
    mats = [[1, 0, 0, 1], [0, 1, 1, 0], [2, 0, 0, 1], [1, 1, 0, 1]]
    assert fpkernel.inverse_matrices(3, 2, mats) == \
        [[1, 0, 0, 1], [0, 1, 1, 0], [2, 0, 0, 1], [1, 2, 0, 1]]
    # a singular matrix is named by its place in the batch
    with pytest.raises(ValueError, match="matrix 3 of the batch"):
        fpkernel.inverse_matrices(3, 2, mats[:3] + [[1, 1, 1, 1]])
    with pytest.raises(ValueError, match="prime"):
        fpkernel.inverse_matrices(4, 2, [[1, 0, 0, 1]])
    with pytest.raises(ValueError, match="dimensions"):
        fpkernel.inverse_matrices(5, 4, [[1] * 16])
