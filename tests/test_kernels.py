"""Cross-backend tests for the finite-field sweep kernels.

The compiled extension and the vectorized fallback must be
interchangeable: same hits, same booleans, same argument errors.
Expected answers come from the exact-arithmetic layer or from plain
in-test loops, never from the kernel under test.
"""

import importlib.util
import io
import random
from pathlib import Path

import numpy as np
import pytest

from postlie import _fpkernel_py as pykern
from postlie import fpkernel
from postlie.catalog import builtin_algebra, get_entry
from postlie.fields import GF
from postlie.lie import LieAlgebra, center, check_lie_axioms
from postlie.linalg import Matrix, inverse
from postlie.search import flat_bracket_tensor, flat_product_tensor
from postlie.structures import BilinearProduct, check_structure

try:
    from postlie import _fpkernel as cykern
except ImportError:
    cykern = None

KERNELS = [pykern] if cykern is None else [cykern, pykern]
KERNEL_IDS = [mod.NAME for mod in KERNELS]

needs_compiled = pytest.mark.skipif(cykern is None,
                                    reason="compiled kernel not built")


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
    mods = fpkernel.backends()
    names = [mod.NAME for mod in mods]
    assert names[-1] == "python"
    assert len(set(names)) == len(names)
    assert fpkernel.BACKEND == names[0]
    for mod in mods:
        for fn in ("jacobi_ok", "verify_structure", "phi_sweep",
                   "product_sweep", "gl_invariance_sweep"):
            assert callable(getattr(mod, fn))


@needs_compiled
def test_compiled_backend_selected():
    assert [mod.NAME for mod in fpkernel.backends()] == ["compiled", "python"]
    assert fpkernel.BACKEND == "compiled"
    assert fpkernel.jacobi_ok is cykern.jacobi_ok
    assert fpkernel.product_sweep is cykern.product_sweep


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


@needs_compiled
def test_product_sweep_backends_agree():
    cases = [
        (2, 2, _zero_flat(2), _zero_flat(2), False),
        (2, 2, _zero_flat(2), _zero_flat(2), True),
        (3, 2, _r2_flat(3), _zero_flat(2), True),
        (3, 2, _r2_flat(3), _zero_flat(2), False),
    ]
    for p, n, cg, cn, symmetric in cases:
        k = n * n * (n + 1) // 2 if symmetric else n ** 3
        total = p ** k
        got_c = cykern.product_sweep(p, n, cg, cn, symmetric, 0, total)
        got_p = pykern.product_sweep(p, n, cg, cn, symmetric, 0, total)
        assert got_c == got_p
        assert got_c == sorted(set(got_c))


@needs_compiled
def test_phi_sweep_backends_agree():
    cn = flat_bracket_tensor(builtin_algebra("sl2", field=GF(3)))
    total = 3 ** 9  # crosses the fallback's chunk boundary
    got_c = cykern.phi_sweep(3, 3, cn, 0, total)
    got_p = pykern.phi_sweep(3, 3, cn, 0, total)
    assert got_c == got_p
    assert 0 in got_c  # phi = 0 always induces the trivial structure


@needs_compiled
def test_gl_sweep_backends_agree_and_match_direct_scan():
    p, n = 3, 2
    cg = _r2_flat(p)
    total = p ** (n * n)
    for tensors in ([_zero_flat(n)], [cg]):
        got_c = cykern.gl_invariance_sweep(p, n, tensors, 0, total)
        got_p = pykern.gl_invariance_sweep(p, n, tensors, 0, total)
        assert got_c == got_p

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
    assert cykern.gl_invariance_sweep(p, n, [cg], 0, total) == expect
    zero_hits = cykern.gl_invariance_sweep(p, n, [_zero_flat(n)], 0, total)
    assert len(zero_hits) == 48  # |GL_2(F_3)|


def test_backend_bench_quick_run_agrees():
    # the timing script is the one place that runs every importable
    # backend on the same sweeps; a nonzero return means a hit-list
    # mismatch between them
    path = Path(__file__).resolve().parent.parent / "benchmarks" / \
        "bench_fpkernel.py"
    spec = importlib.util.spec_from_file_location("bench_fpkernel", path)
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    out = io.StringIO()
    assert bench.run(quick=True, out=out) == 0, out.getvalue()


def _linear(p, cg, cn, pr):
    """The affine identities the fallback solves instead of scanning."""
    return (pykern._vanishes(p, pykern._skew(pr, cg, cn))
            & pykern._vanishes(p, pykern._derivation_action(cn, pr)))


def _box_scan(p, n, cg, cn, symmetric):
    """Indices of the whole digit box where the affine identities hold,
    and where the `_structure` mask holds: the scan the fallback's product
    sweep replaced, kept here as the oracle for its solving.  The masks
    themselves are checked against the exact layer by
    `test_verify_structure_matches_exact_layer`."""
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    total = p ** k
    linear, hits = [], []
    for a in range(0, total, 1 << 15):
        digits = pykern._digits(a, min(total, a + (1 << 15)), p, k)
        pr = pykern._products_from_digits(p, n, digits, cg, cn, symmetric)
        for found, mask in ((linear, _linear), (hits, pykern._structure)):
            found.extend(a + int(m)
                         for m in np.nonzero(mask(p, cg, cn, pr))[0])
    return linear, hits


def _check_solved_sweep(rng, p, n, cg_flat, cn_flat, symmetric):
    """Compare the fallback's product sweep with the box scan, whole and
    in uneven pieces; returns the free-digit count, or None when the
    linear system has no solution."""
    k = n * n * (n + 1) // 2 if symmetric else n ** 3
    total = p ** k
    cg = pykern._tensor(cg_flat, n, p)
    cn = pykern._tensor(cn_flat, n, p)
    case = (p, n, cg_flat, cn_flat, symmetric)
    space = pykern._solution_space(p, n, cg, cn, symmetric)
    solved = []
    if space is not None:
        # every solution, in rank order: exactly the box points where the
        # affine identities hold, and already sorted by index
        digits = pykern._solution_digits(p, space, 0, p ** space[0].size)
        solved = [sum(d * p ** (k - 1 - t) for t, d in enumerate(row))
                  for row in digits.tolist()]
    linear, expect = _box_scan(p, n, cg, cn, symmetric)
    assert solved == linear, case
    assert pykern.product_sweep(p, n, cg_flat, cn_flat, symmetric,
                                0, total) == expect, case
    # uneven pieces, one of them with lo == hi
    cuts = sorted([0, total] + [rng.randrange(total + 1) for _ in range(4)])
    at = rng.randrange(len(cuts))
    cuts.insert(at, cuts[at])
    stitched = []
    for lo, hi in zip(cuts, cuts[1:]):
        stitched.extend(pykern.product_sweep(p, n, cg_flat, cn_flat,
                                             symmetric, lo, hi))
    assert stitched == expect, (case, cuts)
    assert pykern.product_sweep(p, n, cg_flat, cn_flat, symmetric,
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
    if kern is pykern:
        # the fallback's phi test is module-action alone, which is exact
        # only over a Lie bracket; anything else must be refused, or
        # phi = 0 would count as a hit
        bad = LieAlgebra(GF(5), 3, {(0, 1): {2: 1}, (0, 2): {0: 1}})
        with pytest.raises(ValueError, match="not a Lie bracket"):
            kern.phi_sweep(5, 3, flat_bracket_tensor(bad), 0, 1)
        with pytest.raises(ValueError, match="not a Lie bracket"):
            kern.phi_sweep(5, 2, [0, 0, 1, 0, 1, 0, 0, 0], 0, 1)
        # {e1, e1} = e1 is antisymmetric mod 2 but not alternating
        with pytest.raises(ValueError, match="not a Lie bracket"):
            kern.phi_sweep(2, 1, [1], 0, 1)
        # both sweeps solve their affine identities over GF(p)
        with pytest.raises(ValueError, match="not prime"):
            kern.product_sweep(4, 2, [0] * 8, [0] * 8, True, 0, 1)
        with pytest.raises(ValueError, match="not prime"):
            kern.phi_sweep(4, 3, [0] * 27, 0, 1)


@pytest.mark.parametrize("kern", KERNELS, ids=KERNEL_IDS)
def test_sweep_results_are_sorted_ints(kern):
    cn = flat_bracket_tensor(builtin_algebra("n3", field=GF(2)))
    hits = kern.phi_sweep(2, 3, cn, 0, 2 ** 9)
    assert hits == sorted(hits)
    assert all(isinstance(h, int) for h in hits)


def _phi_box_scan(p, n, cn):
    """Indices of every phi in the box whose product x.y = {phi x, y}
    passes the `_module_action` mask: the scan the fallback's dim-3 phi
    sweep replaced, kept here as the oracle for its solving."""
    total = p ** (n * n)
    hits = []
    for a in range(0, total, 1 << 15):
        phi = pykern._digits(a, min(total, a + (1 << 15)), p, n * n)
        phi = phi.reshape(-1, n, n)
        pr = np.einsum("mki,kjr->mijr", phi, cn) % p
        br = (pr - pr.swapaxes(1, 2) + cn) % p
        hits.extend(a + int(m) for m in
                    np.nonzero(pykern._module_action(p, br, pr))[0])
    return hits


def _seeded_basis_change(rng, F, n):
    while True:
        T = Matrix(F, [[rng.randrange(F.p) for _ in range(n)]
                       for _ in range(n)])
        if inverse(T) is not None:
            return T


def test_phi_sweep_matches_box_scan():
    # tier-1 has no compiled backend, so this oracle is the only check
    # of the solved sweep against the box there
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
        cn = pykern._tensor(flat, 3, p)
        total = p ** 9
        expect = _phi_box_scan(p, 3, cn)
        case = (name, p, conj)
        assert pykern.phi_sweep(p, 3, flat, 0, total) == expect, case
        # uneven pieces, one of them with lo == hi
        cuts = sorted([0, total] + [rng.randrange(total + 1)
                                    for _ in range(4)])
        at = rng.randrange(len(cuts))
        cuts.insert(at, cuts[at])
        stitched = []
        for lo, hi in zip(cuts, cuts[1:]):
            stitched.extend(pykern.phi_sweep(p, 3, flat, lo, hi))
        assert stitched == expect, (case, cuts)
        assert pykern.phi_sweep(p, 3, flat, total, 0) == []
        # which branch of the solve each hit came from: w_3, the
        # e3-coefficient of {phi e1, e2} + {e1, phi e2} + {e1, e2}
        phi = pykern._digits(0, total, p, 9)[expect].reshape(-1, 3, 3)
        w3 = (phi[:, :, 0] @ cn[:, 1, 2] + phi[:, :, 1] @ cn[0, :, 2]
              + cn[0, 1, 2]) % p
        branches |= {"w3 != 0" if w else "w3 = 0" for w in w3.tolist()}
    assert branches == {"w3 != 0", "w3 = 0"}
    # Z(n) != 0 puts a whole coset of candidates behind each solution
    # (sl2 mod 2 is n3)
    assert {"abelian", "n3"} <= with_centre
