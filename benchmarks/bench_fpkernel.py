"""Timing comparison of the sweep kernel backends.

Runs the same exhaustive sweeps through every importable backend
(compiled extension and vectorized fallback), checks that they return
identical hit lists, and prints the wall times with the speedup of the
fastest over the slowest.

    python3 benchmarks/bench_fpkernel.py          # full workload
    python3 benchmarks/bench_fpkernel.py --quick  # small sanity sizes
"""

import argparse
import sys
import time

from postlie.catalog import builtin_algebra
from postlie.fields import GF
from postlie.fpkernel import backends
from postlie.search import flat_bracket_tensor


def _workloads(quick):
    pp, pd = (3, 2) if quick else (5, 2)
    prod_field = GF(pp)
    zero = [0] * (pd ** 3)
    fp = 3 if quick else 5
    # n3/n3 over GF(2), symmetric: 2^18 candidates, which derivation-action
    # (every L(x) a derivation of n3) cuts to 2^9 in the fallback
    n3 = flat_bracket_tensor(builtin_algebra("n3", field=GF(2)))
    work = [("product_sweep GF(%d) dim %d full" % (pp, pd),
             lambda kern: kern.product_sweep(pp, pd, zero, zero, False, 0,
                                             pp ** (pd ** 3))),
            ("product_sweep n3/n3 GF(2) symmetric",
             lambda kern: kern.product_sweep(2, 3, n3, n3, True, 0, 2 ** 18))]
    # sl2 has no centre and n3 has one; the fallback's phi test relies on
    # n being a Lie algebra, not on a trivial centre, so both are compared
    for name in ("sl2", "n3"):
        cn = flat_bracket_tensor(builtin_algebra(name, field=GF(fp)))
        work.append(("phi_sweep %s GF(%d)" % (name, fp),
                     lambda kern, cn=cn: kern.phi_sweep(fp, 3, cn, 0,
                                                        fp ** 9)))
    if not quick:
        # 1,066 hits; full mode only, because the compiled kernel scans
        # the whole 7^9 box here, about 9 s
        sl2 = flat_bracket_tensor(builtin_algebra("sl2", field=GF(7)))
        work.append(("phi_sweep sl2 GF(7)",
                     lambda kern: kern.phi_sweep(7, 3, sl2, 0, 7 ** 9)))
    return work


def run(quick=False, out=sys.stdout):
    mods = backends()
    if len(mods) < 2:
        print("only the %s backend is importable; timing it alone"
              % mods[0].NAME, file=out)
    failures = 0
    for label, work in _workloads(quick):
        print(label, file=out)
        results = {}
        times = {}
        for kern in mods:
            begin = time.perf_counter()
            hits = work(kern)
            times[kern.NAME] = time.perf_counter() - begin
            results[kern.NAME] = list(hits)
            print("  %-10s %8.3fs   %d hits"
                  % (kern.NAME, times[kern.NAME], len(hits)), file=out)
        distinct = {tuple(v) for v in results.values()}
        if len(distinct) != 1:
            failures += 1
            print("  MISMATCH: backends disagree on the hit list", file=out)
        elif len(times) > 1:
            fastest = min(times, key=times.get)
            slowest = max(times, key=times.get)
            if times[fastest] > 0:
                print("  %s is %.1fx faster than %s"
                      % (fastest, times[slowest] / times[fastest], slowest),
                      file=out)
    return failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small workloads for a fast smoke run")
    args = parser.parse_args(argv)
    return run(quick=args.quick)


if __name__ == "__main__":
    sys.exit(main())
