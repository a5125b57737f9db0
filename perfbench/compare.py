"""Summarize benchmark result files and compare them with the baseline.

Each run of run.py saves perfbench/out/<workload>-seed<n>-trace<t>.json.
This groups such files by workload, takes the median, quartiles and spread
(interquartile range over the median) of every end-to-end metric named in
BENCHMARK.json, prints them, and compares the medians with those of
perfbench/baseline.json, using each metric's bound.  Results taken on
different kernel backends are never compared: that is refused with exit
code 2.

    python3 perfbench/compare.py perfbench/out/*-trace0.json
    python3 perfbench/compare.py --write-baseline perfbench/out/*-trace0.json
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
BASELINE = HERE / "baseline.json"


class BackendMismatch(Exception):
    pass


def summarize(paths, metrics):
    """{workload: {"backend", "runs", "metrics": {name: quartiles}}}."""
    groups = {}
    for path in paths:
        result = json.loads(Path(path).read_text())
        groups.setdefault(result["workload"], []).append(result)
    out = {}
    for workload, results in sorted(groups.items()):
        backends = {r["env"]["backend"] for r in results}
        if len(backends) != 1:
            raise BackendMismatch("%s: results from backends %s"
                                  % (workload, sorted(backends)))
        env = {k: v for k, v in results[0]["env"].items() if k != "seed"}
        row = {"backend": backends.pop(), "runs": len(results), "env": env,
               "seeds": sorted(r["env"]["seed"] for r in results),
               "metrics": {}}
        for name in metrics:
            values = [r["metrics"][name]["value"] for r in results
                      if name in r["metrics"]]
            if not values:
                continue
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else values * 3)
            row["metrics"][name] = {
                "median": statistics.median(values), "q1": q1, "q3": q3,
                "spread": stats.spread(values) if len(values) > 1 else 0.0,
                "unit": results[0]["metrics"][name]["unit"]}
        out[workload] = row
    return out


def report(summary, spec):
    """Lines giving each metric's median and spread against its bound."""
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    lines = []
    for workload, row in sorted(summary.items()):
        for name, m in row["metrics"].items():
            lines.append("%-16s %-13s median %12.6g %-3s spread %.3f "
                         "(bound %.2f, %d runs)"
                         % (workload, name, m["median"], m["unit"],
                            m["spread"], bounds[name], row["runs"]))
    return lines


def compare(base, new, spec):
    """Lines of the comparison; raises BackendMismatch across backends."""
    lines = []
    for workload, row in sorted(new.items()):
        ref = base.get(workload)
        if ref is None:
            lines.append("%s: not in the baseline" % workload)
            continue
        if ref["backend"] != row["backend"]:
            raise BackendMismatch("%s: baseline on %s, results on %s"
                                  % (workload, ref["backend"],
                                     row["backend"]))
        for metric in spec["end_to_end"]:
            name = metric["name"]
            if name not in row["metrics"] or name not in ref["metrics"]:
                continue
            old = ref["metrics"][name]["median"]
            cur = row["metrics"][name]["median"]
            worse = (cur - old) / old if metric["better"] == "lower" \
                else (old - cur) / old
            verdict = ("WORSE than bound" if worse > metric["bound"]
                       else "within bound")
            lines.append("%-16s %-13s %12.6g -> %12.6g %s  (%+.1f%% worse, "
                         "bound %.0f%%) %s"
                         % (workload, name, old, cur, row["metrics"][name]
                            ["unit"], 100 * worse, 100 * metric["bound"],
                            verdict))
    return lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("results", nargs="+", help="run.py result files")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the summary of RESULTS to baseline.json "
                             "instead of comparing")
    args = parser.parse_args(argv)
    spec = json.loads(BENCHMARK.read_text())
    names = [m["name"] for m in spec["end_to_end"]]
    try:
        new = summarize(args.results, names)
        for line in report(new, spec):
            print(line)
        if args.write_baseline:
            BASELINE.write_text(
                json.dumps(new, indent=1, sort_keys=True) + "\n")
            return 0
        base = json.loads(BASELINE.read_text())
        for line in compare(base, new, spec):
            print(line)
    except BackendMismatch as exc:
        print("refused: %s" % exc, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
