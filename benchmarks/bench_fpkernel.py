"""Timing of the finite-field sweep kernels.

Runs exhaustive sweeps through `postlie.fpkernel`, prints the wall time
and hit count of each, and checks each hit count against a closed form
or a recorded count.  The exit status is the number of rows whose count
differs.  It imports the package from the `src` directory of its own
checkout.

    python3 benchmarks/bench_fpkernel.py          # full workload
    python3 benchmarks/bench_fpkernel.py --quick  # small sanity sizes
"""

import argparse
import sys
import time
from pathlib import Path

# the package from this checkout, installed or not
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from postlie import fpkernel  # noqa: E402
from postlie.catalog import builtin_algebra  # noqa: E402
from postlie.fields import GF  # noqa: E402
from postlie.search import flat_bracket_tensor  # noqa: E402

# hit counts recorded from the sweeps, keyed by (row, p)
RECORDED = {
    # abelian/abelian in dimension 2, full mode, and symmetric mode
    ("product", 3): 105, ("product", 5): 745,
    ("product symmetric", 3): 105, ("product symmetric", 7): 2737,
    ("phi sl2", 3): 86, ("phi sl2", 5): 392, ("phi sl2", 7): 1066,
    ("phi n3", 3): 2187, ("phi n3", 5): 78125,
    ("phi r2", 3): 24, ("phi r2", 5): 70,
}

# automorphism group orders: Aut(sl2) = PGL2(F_p); Aut(n3) is GL2 of
# V / Z(n3) times the p^2 maps of V / Z into Z(n3); Aut(abelian(3)) is
# GL3(F_p); Aut(r3_lambda(2)), with [e1, e2] = e2 and [e1, e3] = 2 e3,
# is e1 -> e1 + a e2 + b e3 with e2, e3 scaled by units, and over GF(3),
# where 2 = -1, also those maps composed with e1 -> -e1 and e2 <-> e3
AUT_ORDERS = {
    "sl2": lambda p: p * (p * p - 1),
    "n3": lambda p: p ** 2 * (p ** 2 - 1) * (p ** 2 - p),
    "abelian": lambda p: (p ** 3 - 1) * (p ** 3 - p) * (p ** 3 - p ** 2),
    "r3_lambda": lambda p: p ** 2 * (p - 1) ** 2 * (2 if p == 3 else 1),
}


def _bracket(name, p, dim=3):
    """The flat bracket of a builtin algebra; the eigenvalue 2 is read by
    r3_lambda alone."""
    return flat_bracket_tensor(builtin_algebra(name, field=GF(p), dim=dim,
                                               lam=2))


def _workloads(quick):
    """(label, sweep, expected hit count) rows."""
    p = 3 if quick else 5
    zero = [0] * 8
    # n3/n3 over GF(2), symmetric: 2^18 candidates, which derivation-action
    # (every L(x) a derivation of n3) cuts to 2^9 solutions; abelian(3)
    # cuts nothing, so module-action decides all 2^18, 2^3 to a prefix;
    # abelian(2) over GF(7), symmetric, is the product sweep of the
    # products-orbits benchmark workload, 7^2 candidates to a prefix
    n3 = _bracket("n3", 2)
    zero3 = [0] * 27
    q = 3 if quick else 7
    rows = [("product_sweep GF(%d) dim 2 full" % p,
             lambda: fpkernel.product_sweep(p, 2, zero, zero, False, 0,
                                            p ** 8),
             RECORDED["product", p]),
            ("product_sweep abelian(2)/abelian(2) GF(%d) symmetric" % q,
             lambda: fpkernel.product_sweep(q, 2, zero, zero, True, 0,
                                            q ** 6),
             RECORDED["product symmetric", q]),
            ("product_sweep n3/n3 GF(2) symmetric",
             lambda: fpkernel.product_sweep(2, 3, n3, n3, True, 0, 2 ** 18),
             44),
            ("product_sweep abelian(3) GF(2) symmetric",
             lambda: fpkernel.product_sweep(2, 3, zero3, zero3, True, 0,
                                            2 ** 18),
             988)]
    # sl2 has no centre and n3 has one, which puts a coset of solutions
    # behind each solved prefix of the phi sweep; in dimension 2 nothing
    # is solved, and phi e2 takes all p^2 values
    for name, dim in (("sl2", 3), ("n3", 3), ("r2", 2)):
        cn = _bracket(name, p, dim)
        rows.append(("phi_sweep %s GF(%d)" % (name, p),
                     lambda cn=cn, dim=dim: fpkernel.phi_sweep(
                         p, dim, cn, 0, p ** (dim * dim)),
                     RECORDED["phi " + name, p]))
    if not quick:
        sl2 = _bracket("sl2", 7)
        rows.append(("phi_sweep sl2 GF(7)",
                     lambda: fpkernel.phi_sweep(7, 3, sl2, 0, 7 ** 9),
                     RECORDED["phi sl2", 7]))
    # n3 and sl2 solve one column per prefix; abelian has no bracket to
    # solve from and scans the whole box with the determinant alone, and
    # r3_lambda(2) has no slot to solve from and scans it with its bracket
    for name in ("n3", "sl2", "abelian", "r3_lambda"):
        c = _bracket(name, p)
        rows.append(("gl_invariance_sweep %s GF(%d)" % (name, p),
                     lambda c=c: fpkernel.gl_invariance_sweep(p, 3, [c], 0,
                                                              p ** 9),
                     AUT_ORDERS[name](p)))
    return rows


def run(quick=False, out=sys.stdout):
    print("backend: %s" % fpkernel.BACKEND, file=out)
    # numpy loads on the first kernel call; keep that out of the first row
    fpkernel.jacobi_ok(2, 1, [0])
    failures = 0
    for label, sweep, expected in _workloads(quick):
        begin = time.perf_counter()
        hits = sweep()
        elapsed = time.perf_counter() - begin
        print("%-52s %8.3fs   %d hits" % (label, elapsed, len(hits)),
              file=out)
        if len(hits) != expected:
            failures += 1
            print("  MISMATCH: expected %d hits" % expected, file=out)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for a fast smoke run")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
