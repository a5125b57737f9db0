"""Finite-field sweeps: encoding, enumeration, orbits, the phi ansatz."""

import itertools
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from postlie import fpkernel, search
from postlie.catalog import builtin_algebra, get_entry
from postlie.errors import (DimensionError, GuardError,
                            ParameterError, StructureError,
                            UnsupportedFieldError)
from postlie.fields import GF, QQ
from postlie.linalg import Matrix, inverse, unit_vector
from postlie.search import (BANNER, DEFAULT_GUARD, GUARD_ENV, SearchSpec,
                            automorphism_indices, check_guard, current_guard,
                            decode_matrix, decode_product, encode_matrix,
                            encode_product, enumerate_products,
                            flat_bracket_tensor, flat_product_tensor,
                            nonexistence_probe, orbit_reduce, pair_from_phi,
                            phi_ansatz_sweep, transform_product)
from postlie.structures import (BilinearProduct, check_structure,
                                endomorphism_from_structure)


def _abelian_spec(p, symmetric=True):
    A = builtin_algebra("abelian", field=GF(p), dim=2)
    return SearchSpec(A, A, symmetric=symmetric)


def test_spec_counts():
    spec = _abelian_spec(3)
    assert spec.p == 3 and spec.dim == 2
    assert spec.digit_count == 6 and spec.total == 729
    full = _abelian_spec(3, symmetric=False)
    assert full.digit_count == 8 and full.total == 6561


def test_spec_guards():
    with pytest.raises(UnsupportedFieldError):
        SearchSpec(builtin_algebra("abelian", dim=2),
                   builtin_algebra("abelian", dim=2))
    with pytest.raises(ParameterError):
        SearchSpec(builtin_algebra("abelian", field=GF(3), dim=2),
                   builtin_algebra("n3", field=GF(3)))
    with pytest.raises(ParameterError):
        SearchSpec(builtin_algebra("abelian", field=GF(3), dim=2),
                   builtin_algebra("abelian", field=GF(5), dim=2))


def test_decode_encode_round_trip():
    rng = random.Random(11)
    for spec in (_abelian_spec(5), _abelian_spec(5, symmetric=False)):
        for _ in range(200):
            index = rng.randrange(spec.total)
            product = decode_product(spec, index)
            assert encode_product(spec, product) == index


def _sweep_specs():
    """Bracket pairs to sweep over, with forced slots whose bracket gap is
    zero and nonzero, in dimensions 2 and 3 and both modes."""
    specs = []
    for g, n, p in (("abelian", "abelian", 5), ("r2", "abelian", 5),
                    ("r2", "r2", 3), ("r3", "n3", 3), ("n3", "n3", 2),
                    ("sl2", "n3", 7)):
        field = GF(p)
        G, N = (builtin_algebra(name, field=field,
                                **({"dim": 2} if name == "abelian" else {}))
                for name in (g, n))
        if G.dim == N.dim:
            specs += [SearchSpec(G, N, symmetric=True),
                      SearchSpec(G, N, symmetric=False)]
    return specs


_SWEEP_SPECS = _sweep_specs()


@st.composite
def _spec_and_index(draw):
    spec = draw(st.sampled_from(_SWEEP_SPECS))
    return spec, draw(st.integers(0, spec.total - 1))


@settings(max_examples=200, deadline=None)
@given(_spec_and_index(), st.data())
def test_decode_encode_round_trip_property(case, data):
    spec, index = case
    product = decode_product(spec, index)
    assert encode_product(spec, product) == index
    # the same table built by the coercing constructor encodes alike
    rebuilt = BilinearProduct(spec.g.field, spec.dim, product.table)
    assert rebuilt == product
    assert encode_product(spec, rebuilt) == index
    p, n = spec.p, spec.dim
    i, j = data.draw(st.sampled_from(
        [(i, j) for i in range(n) for j in range(n) if i < j]))
    k = data.draw(st.integers(0, n - 1))
    shift = data.draw(st.integers(1, p - 1))
    raw = {key: list(vec) for key, vec in product.raw.items()}
    slot = raw.setdefault((i, j), [0] * n)
    slot[k] += shift
    moved = BilinearProduct.from_raw(spec.g.field, n, raw)
    if spec.symmetric:
        # a shifted upper slot puts the skew part off the bracket gap
        with pytest.raises(ParameterError, match="skew part"):
            encode_product(spec, moved)
    else:
        # full mode reaches every table: one digit moves by the shift
        digit = (i * n + j) * n + k
        place = p ** (spec.digit_count - 1 - digit)
        old = product.raw.get((i, j), (0,) * n)[k]
        assert encode_product(spec, moved) == \
            index + ((old + shift) % p - old) * place


def _assert_canonical(product):
    """`raw` is in canonical form: key order, no zero slot, residue ints
    in 0..p-1 over GF(p) and Fractions over Q."""
    field = product.field
    assert list(product.raw) == sorted(product.raw)
    for vec in product.raw.values():
        assert len(vec) == product.dim and any(vec)
        for v in vec:
            if field.is_rational:
                assert type(v) is Fraction
            else:
                assert type(v) is int and 0 <= v < field.p


def _assert_same_raw(product, other):
    assert product.raw == other.raw
    assert list(product.raw) == list(other.raw)


@settings(max_examples=150, deadline=None)
@given(_spec_and_index(), st.integers(0, 2 ** 32))
def test_products_keep_canonical_residues(case, seed):
    # decode and change of basis build `raw` directly, reducing only where
    # a value can leave 0..p-1: it must equal what the coercing
    # constructor makes of the same table, in the same key order
    spec, index = case
    field, n = spec.g.field, spec.dim
    digits = search._index_digits(index, spec.p, spec.digit_count)
    table = {key: [field.scalar(d) for d in digits[q * n:(q + 1) * n]]
             for q, key in enumerate(spec.digit_slots)}
    if spec.symmetric:
        for i, j in itertools.combinations(range(n), 2):
            table[(i, j)] = [a + b - c for a, b, c in zip(
                table[(j, i)], spec.g.bracket_basis(i, j),
                spec.n.bracket_basis(i, j))]
    product = decode_product(spec, index)
    _assert_canonical(product)
    _assert_same_raw(product, BilinearProduct(field, n, table))
    assert encode_product(spec, product) == index

    rng = random.Random(seed)
    while True:
        T = Matrix(field, [[rng.randrange(spec.p) for _ in range(n)]
                           for _ in range(n)])
        Tinv = inverse(T)
        if Tinv is not None:
            break
    moved = product.change_basis(T, Tinv)
    # T^-1 (T e_i . T e_j), in field scalars
    dense = {(i, j): Tinv.apply(product.product(T.col(i), T.col(j)))
             for i in range(n) for j in range(n)}
    _assert_canonical(moved)
    _assert_same_raw(moved, BilinearProduct(field, n, dense))
    _assert_same_raw(moved, product.change_basis(T))
    # the same table and basis change over Q (T stays invertible there)
    lifted = BilinearProduct(QQ, n, product.raw)
    TQ = Matrix(QQ, [[e.a for e in T.row(r)] for r in range(n)])
    TQinv = inverse(TQ)
    moved_q = lifted.change_basis(TQ, TQinv)
    _assert_canonical(moved_q)
    _assert_same_raw(moved_q, BilinearProduct(QQ, n, {
        (i, j): TQinv.apply(lifted.product(TQ.col(i), TQ.col(j)))
        for i in range(n) for j in range(n)}))


def test_decode_rejects_indices_outside_the_sweep():
    # both ends of 0..total - 1 decode; one step past either end is refused
    # instead of wrapping onto the other end
    for spec in (_abelian_spec(3), _abelian_spec(3, symmetric=False)):
        last = spec.total - 1
        assert encode_product(spec, decode_product(spec, 0)) == 0
        assert encode_product(spec, decode_product(spec, last)) == last
        for bad in (-1, spec.total, spec.total + 1):
            with pytest.raises(ParameterError, match="outside the sweep"):
                decode_product(spec, bad)
    assert encode_matrix(decode_matrix(GF(3), 2, 0)) == 0
    assert encode_matrix(decode_matrix(GF(3), 2, 80)) == 80
    for bad in (-1, 81):
        with pytest.raises(ParameterError, match="outside the sweep"):
            decode_matrix(GF(3), 2, bad)


def test_symmetric_decode_forces_the_skew_slots():
    # g = n = r2 over GF(5): opposite slots differ by [,]_g - {,}_n = 0,
    # so the symmetric mode really is symmetric here
    r2 = builtin_algebra("r2", field=GF(5))
    spec = SearchSpec(r2, r2, symmetric=True)
    product = decode_product(spec, 123)
    assert product.product_basis(0, 1) == product.product_basis(1, 0)

    # mismatched brackets shift the lower slot by the bracket gap
    n = builtin_algebra("abelian", field=GF(5), dim=2)
    spec2 = SearchSpec(r2, n, symmetric=True)
    product2 = decode_product(spec2, 77)
    gap = r2.bracket_basis(0, 1)
    diff = tuple(a - b for a, b in zip(product2.product_basis(1, 0),
                                       product2.product_basis(0, 1)))
    assert diff == tuple(-c for c in gap)


def test_encode_rejects_unreachable_tables():
    spec = _abelian_spec(3)
    from postlie.structures import BilinearProduct
    asym = BilinearProduct(GF(3), 2, {(0, 1): {0: 1}})
    with pytest.raises(ParameterError):
        encode_product(spec, asym)

    # one product off the parametrization per forced slot (i < j): a
    # reachable product with that slot alone shifted
    F = GF(3)
    spec3 = SearchSpec(builtin_algebra("r3", field=F),
                       builtin_algebra("n3", field=F), symmetric=True)
    reachable = decode_product(spec3, 5000)
    assert encode_product(spec3, reachable) == 5000
    outside = "outside the symmetric parametrization"
    for i, j in ((0, 1), (0, 2), (1, 2)):
        table = dict(reachable.table)
        slot = reachable.product_basis(i, j)
        table[(i, j)] = (slot[0] + 1,) + slot[1:]
        with pytest.raises(ParameterError, match=outside):
            encode_product(spec3, BilinearProduct(F, 3, table))
    # a product over another field or of another dimension
    with pytest.raises(ParameterError, match=outside):
        encode_product(spec3, BilinearProduct(GF(5), 3, {}))
    with pytest.raises(ParameterError, match=outside):
        encode_product(spec3, BilinearProduct(F, 2, {}))
    # full mode reaches every table of its field and dimension, and no
    # other: a GF(5) product with e2.e2 = 4 e2 once encoded to 4
    full = _abelian_spec(3, symmetric=False)
    assert encode_product(full, decode_product(full, 4)) == 4
    outside = "outside the full parametrization"
    with pytest.raises(ParameterError, match=outside):
        encode_product(full, BilinearProduct(GF(5), 2, {(1, 1): {1: 4}}))
    with pytest.raises(ParameterError, match=outside):
        encode_product(full, BilinearProduct(GF(3), 3, {}))


def test_enumeration_full_agrees_with_direct_scan():
    # GF(2) is small enough to re-check every candidate with the scanner
    spec = _abelian_spec(2, symmetric=False)
    result = enumerate_products(spec)
    direct = []
    for index in range(spec.total):
        product = decode_product(spec, index)
        if check_structure(spec.g, spec.n, product).passed:
            direct.append(index)
    assert list(result.indices) == direct
    assert result.total == 256
    products = result.products()
    assert len(products) == len(result.indices)


def test_enumeration_symmetric_matches_full_tables():
    sym = enumerate_products(_abelian_spec(3))
    full = enumerate_products(_abelian_spec(3, symmetric=False))
    assert len(sym.indices) == len(full.indices) == 105
    sym_tables = {decode_product(sym.spec, i) for i in sym.indices}
    full_tables = {decode_product(full.spec, i) for i in full.indices}
    assert sym_tables == full_tables


def test_catalog_members_appear_in_the_sweep():
    spec = _abelian_spec(3)
    hits = set(enumerate_products(spec).indices)
    for entry_id in ("V1", "V2", "V3", "V4", "V5"):
        pair = get_entry(entry_id).build_sample({}, field=GF(3))
        index = encode_product(spec, pair.product)
        assert index in hits, entry_id


def test_non_hits_fail_the_checker():
    spec = _abelian_spec(5)
    hits = set(enumerate_products(spec).indices)
    rng = random.Random(23)
    tried = 0
    while tried < 1000:
        index = rng.randrange(spec.total)
        if index in hits:
            continue
        product = decode_product(spec, index)
        assert not check_structure(spec.g, spec.n, product).passed
        tried += 1


def test_orbit_reduction_frozen_counts():
    spec = _abelian_spec(3)
    result = enumerate_products(spec)
    dec = orbit_reduce(spec, result.indices)
    assert dec.aut_order == 48
    assert dec.count == 6
    assert sorted(len(orbit) for orbit in dec.orbits) == \
        [1, 8, 24, 24, 24, 24]
    assert sum(len(orbit) for orbit in dec.orbits) == 105
    reps = dec.representatives()
    assert len(reps) == 6
    # every orbit stays inside the hit set
    hits = set(result.indices)
    for orbit in dec.orbits:
        assert set(orbit) <= hits


def test_automorphism_indices_on_abelian_plane():
    A = builtin_algebra("abelian", field=GF(3), dim=2)
    indices = automorphism_indices((A, A))
    assert len(indices) == 48  # all of GL_2(F_3)
    for index in indices[:5]:
        T = decode_matrix(GF(3), 2, index)
        assert encode_matrix(T) == index


def test_automorphism_indices_respect_brackets():
    r2 = builtin_algebra("r2", field=GF(3))
    got = automorphism_indices((r2, r2))
    # direct scan over GL_2(F_3)
    expected = []
    F = GF(3)
    for a in range(3):
        for b in range(3):
            for c in range(3):
                for d in range(3):
                    if (a * d - b * c) % 3 == 0:
                        continue
                    T = Matrix(F, [[a, b], [c, d]])
                    lhs = T.apply(r2.bracket_basis(0, 1))
                    rhs = r2.bracket(T.col(0), T.col(1))
                    if lhs == rhs:
                        expected.append(encode_matrix(T))
    assert sorted(got) == sorted(expected)
    assert 0 < len(got) < 48


def test_transform_product_is_an_action():
    spec = _abelian_spec(3)
    product = decode_product(spec, 101)
    ident = Matrix.identity(GF(3), 2)
    assert transform_product(product, ident) == product
    with pytest.raises(DimensionError):
        transform_product(product, Matrix.zeros(GF(3), 2, 2))
    # composition: conjugating by S, then by T, is conjugating by S T
    mats = [decode_matrix(GF(3), 2, a)
            for a in automorphism_indices((spec.g, spec.n))]
    for S in mats[::7]:
        for T in mats[::5]:
            assert transform_product(transform_product(product, S), T) == \
                transform_product(product, S * T)
            assert transform_product(product, T, inverse(T)) == \
                transform_product(product, T)


@pytest.mark.parametrize("name, p", [("abelian", 3), ("r2", 3)])
def test_orbit_reduce_transforms_each_representative_once_per_automorphism(
        name, p, monkeypatch):
    # orbit_reduce conjugates one representative per orbit by every
    # automorphism through transform_product, once per pair, and each
    # call returns a product; the benchmark's per-layer counts rely on it
    L = builtin_algebra(name, field=GF(p),
                        **({"dim": 2} if name == "abelian" else {}))
    spec = SearchSpec(L, L)
    hits = enumerate_products(spec).indices
    calls = []

    def counted(product, T, Tinv=None):
        moved = transform_product(product, T, Tinv)
        assert type(moved) is BilinearProduct
        calls.append(product)
        return moved

    monkeypatch.setattr(search, "transform_product", counted)
    dec = orbit_reduce(spec, hits)
    assert dec.count > 1
    assert len(calls) == dec.count * dec.aut_order
    assert sorted({encode_product(spec, P) for P in calls}) == \
        sorted(dec.representatives())


def test_orbit_reduce_inverts_the_automorphisms_in_one_kernel_pass(
        monkeypatch):
    # every T^-1 comes from one adjugate pass of the kernel, none from an
    # exact inversion, and each is the exact inverse of its T
    from postlie import linalg
    L = builtin_algebra("r2", field=GF(5))
    spec = SearchSpec(L, L)
    hits = enumerate_products(spec).indices
    passes, pairs = [], []

    def no_inverse(matrix):
        raise AssertionError("exact inversion in orbit_reduce")

    def kernel_pass(p, n, mats):
        passes.append(len(mats))
        return inverse_matrices(p, n, mats)

    def recorded(product, T, Tinv=None):
        pairs.append((T, Tinv))
        return transform_product(product, T, Tinv)

    inverse_matrices = fpkernel.inverse_matrices
    monkeypatch.setattr(linalg, "inverse", no_inverse)
    monkeypatch.setattr(fpkernel, "inverse_matrices", kernel_pass)
    monkeypatch.setattr(search, "transform_product", recorded)
    dec = orbit_reduce(spec, hits)
    monkeypatch.undo()
    assert passes == [dec.aut_order]
    assert len({T for T, _ in pairs}) == dec.aut_order
    for T, Tinv in pairs:
        assert type(Tinv) is Matrix and Tinv == inverse(T)


def _fixed_counts(spec, hits, mats):
    """|Fix(T)| on the hit list for each T in mats.  The action is linear
    in the product, so each T is applied by the slot formula
    T^-1 (T e_i . T e_j) to the n^3 unit products only, and the hit
    tensors are then moved by that matrix in numpy."""
    field, n, p = spec.g.field, spec.dim, spec.p
    units = [BilinearProduct(field, n, {(a, b): unit_vector(field, n, c)})
             for a in range(n) for b in range(n) for c in range(n)]
    tensors = np.array([flat_product_tensor(decode_product(spec, i))
                        for i in hits], dtype=np.int64)
    counts = []
    for T in mats:
        Tinv = inverse(T)
        cols = [T.col(i) for i in range(n)]
        images = [flat_product_tensor(BilinearProduct(field, n, {
            (i, j): Tinv.apply(unit.product(cols[i], cols[j]))
            for i in range(n) for j in range(n)})) for unit in units]
        moved = tensors @ np.array(images, dtype=np.int64) % p
        counts.append(int((moved == tensors).all(axis=1).sum()))
    return counts


@pytest.mark.parametrize("name, p", [("abelian", 3), ("abelian", 5),
                                     ("r2", 3), ("n3", 2)])
def test_orbit_count_matches_burnside(name, p, monkeypatch):
    """The orbit count in both parametrizations is Burnside's
    (1/|G|) sum_T |Fix(T)|, with Fix(T) computed independently of
    transform_product.  The full n3 box is 2^27, over the default guard;
    the numpy kernel solves skew-part and derivation-action first and
    masks only 2^9 of it."""
    monkeypatch.setenv(GUARD_ENV, str(2 ** 27))
    L = builtin_algebra(name, field=GF(p),
                        **({"dim": 2} if name == "abelian" else {}))
    mats = [decode_matrix(L.field, L.dim, a)
            for a in automorphism_indices((L, L))]
    for symmetric in (True, False):
        spec = SearchSpec(L, L, symmetric=symmetric)
        hits = enumerate_products(spec).indices
        fixed = sum(_fixed_counts(spec, hits, mats))
        assert fixed % len(mats) == 0
        dec = orbit_reduce(spec, hits)
        assert dec.aut_order == len(mats)
        assert dec.count == fixed // len(mats)


class _IntruderKernel:
    """The numpy kernel, whose automorphism sweep also returns one
    invertible matrix that is not an automorphism."""

    def __init__(self, intruder):
        self.intruder = intruder

    def gl_invariance_sweep(self, p, n, tensors, lo, hi):
        found = fpkernel.gl_invariance_sweep(p, n, tensors, lo, hi)
        assert self.intruder not in found
        return sorted(set(found) | {self.intruder})


@pytest.mark.parametrize("symmetric", [True, False])
def test_orbit_reduce_rejects_a_non_automorphism(symmetric):
    r2 = builtin_algebra("r2", field=GF(3))
    spec = SearchSpec(r2, r2, symmetric=symmetric)
    hits = enumerate_products(spec).indices
    swap = encode_matrix(Matrix(GF(3), [[0, 1], [1, 0]]))
    with pytest.raises(GuardError, match="carried hit .* to non-hit"):
        orbit_reduce(spec, hits, kernel=_IntruderKernel(swap))


def test_guard_env_variable(monkeypatch):
    assert current_guard() == DEFAULT_GUARD
    monkeypatch.setenv(GUARD_ENV, "100")
    assert current_guard() == 100
    with pytest.raises(GuardError):
        check_guard(101)
    check_guard(100)
    with pytest.raises(GuardError):
        enumerate_products(_abelian_spec(3))
    monkeypatch.setenv(GUARD_ENV, "not-a-number")
    with pytest.raises(GuardError):
        current_guard()


def _validates(n, phi):
    try:
        pair_from_phi(n, phi)
    except StructureError:
        return False
    return True


@pytest.mark.parametrize("name", ["abelian", "n3", "r3", "sl2"])
def test_phi_sweep_hits_validate_and_non_hits_fail(name):
    def algebra(p):
        return builtin_algebra(name, field=GF(p), dim=3)

    # exact oracle over GF(2): the kernel's hit set is exactly the set of
    # phi whose pair validates (the kernel tests module-action alone)
    n = algebra(2)
    oracle = {index for index in range(2 ** 9)
              if _validates(n, decode_matrix(GF(2), 3, index))}
    assert 0 in oracle
    for kern in fpkernel.backends():
        assert set(kern.phi_sweep(2, 3, flat_bracket_tensor(n), 0,
                                  2 ** 9)) == oracle, kern.NAME

    n = algebra(3)
    hits = fpkernel.phi_sweep(3, 3, flat_bracket_tensor(n), 0, 3 ** 9)
    hit_set = set(hits)
    assert 0 in hit_set  # the zero endomorphism always works
    for index in hits[:20]:
        assert pair_from_phi(n, decode_matrix(GF(3), 3, index)).validated
    non_hits = [index for index in range(3 ** 9) if index not in hit_set]
    for index in random.Random(5).sample(non_hits, min(400, len(non_hits))):
        with pytest.raises(StructureError):
            pair_from_phi(n, decode_matrix(GF(3), 3, index))


def test_pair_from_phi_shapes():
    n = builtin_algebra("sl2", field=GF(5))
    pair = pair_from_phi(n, Matrix.identity(GF(5), 3).scale(GF(5).scalar(-1)))
    assert pair.validated
    # x.y = {-x, y} makes the associated bracket the negated one
    assert pair.g.bracket_basis(0, 1) == \
        tuple(-a for a in n.bracket_basis(0, 1))
    with pytest.raises(DimensionError):
        pair_from_phi(n, Matrix.identity(GF(5), 2))


@pytest.mark.parametrize("name, p, count", [("sl2", 5, 392), ("r2", 5, 70),
                                            ("r2", 7, 140)])
def test_phi_round_trip_over_gf_p(name, p, count):
    # n is complete, so every structure is x.y = {phi x, y} for exactly
    # one phi, and endomorphism_from_structure must give that phi back
    n = builtin_algebra(name, field=GF(p))
    k = n.dim * n.dim
    hits = fpkernel.phi_sweep(p, n.dim, flat_bracket_tensor(n), 0, p ** k)
    assert len(hits) == count
    for index in random.Random(13).sample(hits, 40):
        phi = decode_matrix(n.field, n.dim, index)
        assert endomorphism_from_structure(pair_from_phi(n, phi)) == phi


def test_probe_requires_known_classes():
    with pytest.raises(ParameterError):
        nonexistence_probe("perfect")
    with pytest.raises(ParameterError):
        nonexistence_probe("sl2", n_class="r2")
    with pytest.raises(ParameterError):
        nonexistence_probe("sl2", p=3)


def test_probe_existence_and_banner():
    probe = nonexistence_probe("sl2", p=5)
    assert probe.exists
    assert probe.matching == (0, 1565004)
    assert probe.class_counts["perfect"] == 2
    assert probe.class_counts["solvable"] == 390
    assert probe.total == 5 ** 9
    assert "GF(5)" in probe.banner
    assert "not a characteristic-zero proof" in probe.banner
    assert BANNER % 5 == probe.banner

    nothing = nonexistence_probe("heisenberg", p=5)
    assert not nothing.exists and nothing.matching == ()


def _phi_matrices(p, indices):
    """The matrices phi[m] (column i is phi e_i) of dim-3 sweep indices."""
    digits = [[index // p ** (8 - t) % p for t in range(9)]
              for index in indices]
    return np.array(digits, dtype=np.int64).reshape(-1, 3, 3)


def _phi_indices(p, phi):
    return set((phi.reshape(-1, 9) % p @ p ** np.arange(8, -1, -1)).tolist())


def _ints(mat):
    return np.array([v.a for v in mat.flat()]).reshape(mat.nrows, mat.ncols)


def _sl2_automorphisms(p):
    """Aut(sl2) over GF(p), without the automorphism sweep: the builtin
    table has {e1, e2} = e3, so T e3 = {T e1, T e2}, and the T whose
    other two brackets hold and that are invertible are exactly the
    automorphisms.  Each is (T, T^-1) as integer matrices."""
    cn = np.array(flat_bracket_tensor(builtin_algebra("sl2", field=GF(p))),
                  dtype=np.int64).reshape(3, 3, 3)
    cols = np.array(list(itertools.product(range(p), repeat=6)),
                    dtype=np.int64).reshape(-1, 2, 3)
    a, b = cols[:, 0], cols[:, 1]

    def bracket(x, y):
        return np.einsum("mk,ml,klr->mr", x, y, cn) % p
    c = bracket(a, b)
    T = np.stack([a, b, c], axis=2)
    ok = ((bracket(a, c) - T @ cn[0, 2]) % p == 0).all(axis=1) \
        & ((bracket(b, c) - T @ cn[1, 2]) % p == 0).all(axis=1)
    out = []
    for mat in T[ok]:
        inv = inverse(Matrix(GF(p), mat.tolist()))
        if inv is not None:
            out.append((mat, _ints(inv)))
    return out


@pytest.mark.parametrize("name, p, direct", [
    ("n3", 3, None), ("r3", 3, None), ("sl2", 3, None),
    pytest.param("sl2", 5, _sl2_automorphisms, id="sl2-5-direct")])
def test_phi_hits_closed_under_involution_and_automorphisms(name, p, direct):
    # both maps preserve the module-action defect modulo Z(n), so no
    # oracle is needed: the defect of -id - phi is the defect of phi, and
    # for T in Aut(n) the defect of T phi T^-1 is T applied to the defect
    # of phi, which is central again because T Z(n) = Z(n)
    F = GF(p)
    n = builtin_algebra(name, field=F)
    hits = fpkernel.phi_sweep(p, 3, flat_bracket_tensor(n), 0, p ** 9)
    phi = _phi_matrices(p, hits)
    hit_set = set(hits)
    assert len(hit_set) == len(hits) > 1
    assert _phi_indices(p, -np.eye(3, dtype=np.int64) - phi) == hit_set
    auts = automorphism_indices([n])
    if direct is not None:
        # the same group, built without the automorphism sweep
        built = direct(p)
        assert len(built) == len(auts)
        assert _phi_indices(p, np.array([T for T, _ in built])) == set(auts)
    pairs = [(_ints(T), _ints(inverse(T)))
             for T in (decode_matrix(F, 3, index) for index in auts)]
    assert len(pairs) > 1
    for T, T_inv in pairs:
        assert _phi_indices(p, T @ phi @ T_inv) == hit_set
