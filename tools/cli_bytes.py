#!/usr/bin/env python3
"""Fingerprint the bytes of a fixed list of `postlie` commands.

Every command runs in a fresh process, `python3 -m postlie ...` with
`PYTHONPATH=<tree>/src`, in a temporary directory, without
`POSTLIE_GUARD` set.  The list is:

- `catalog list` and `catalog verify`, in text and json;
- `catalog export` of every entry over Q, Fp:3, Fp:5 and Fp:7;
- `check`, `analyze`, `embed` and `audit`, in text and json, on each of
  those exports (the tree's own stdout, written to a file; an export
  that failed leaves an empty file);
- the `search products`, `phi` and `probe` runs of `tests/test_cli.py`,
  and `--orbits` on sl2/sl2 and r3/r3 over GF(7), on abelian/abelian of
  dimension 2 over GF(7) (the abelian half of the products-orbits
  benchmark: 2737 hits, 6 orbits under 2016 automorphisms) and on n3/n3
  over GF(5) (11 orbits under 12000 automorphisms, a few seconds);
- `search phi` on sl2 over GF(5) with `--limit 400` in json, which
  prints all 392 hit matrices, each decoded from its sweep index and
  read back as residues;
- refusals: unknown ids, bad parameters and fields, the guard.

The temporary directory is written `<tmp>` in commands and outputs, so
two trees print the same bytes for the same behaviour.  For each
command the script prints its exit code, the sha256 of its stdout and of
its stderr, and the command.

Usage, from the root of a source tree:

    python3 tools/cli_bytes.py TREE           # fingerprint one tree
    python3 tools/cli_bytes.py TREE OTHER     # list the commands whose
                                              # bytes differ; exit 1 if any

Standard library only.
"""

import hashlib
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TMP = "<tmp>"
WORKERS = 2

ENTRY_IDS = tuple("V%d" % k for k in range(1, 18)) + (
    "heis_commutative", "sl2_family", "lambda_n3", "zero_n3", "zero_sl2",
    "adjoint_sl2")
FIELDS = ("Q", "Fp:3", "Fp:5", "Fp:7")
DOCUMENT_COMMANDS = ("check", "analyze", "embed", "audit")

SEARCHES = (
    "products --p 3 --g abelian --n abelian --dim 2 --orbits",
    "products --p 3 --g abelian --n abelian --dim 2 --orbits --format json",
    "products --p 2 --g abelian --n abelian --dim 2 --full --format json",
    "products --p 3 --g bogus --n abelian",
    "products --p 3 --g abelian --n abelian",
    "products --p 4 --g r2 --n r2",
    "products --p 3 --g r2 --n r2 --limit -1",
    "products --p 2 --g r3_lambda --n r3_lambda --lam 3/5 --orbits "
    "--format json",
    "products --p 2 --g r3_lambda --n r3_lambda",
    "products --p 2 --g r3 --n r3_lambda",
    "products --p 3 --g abelian --n abelian --dim 0",
    "products --p 3 --g r3_lambda --n r3_lambda --lam half",
    "products --g n3 --n n3 --p 3 --orbits",
    "products --g abelian --n abelian --dim 3 --p 3",
    "products --g sl2 --n sl2 --p 7 --orbits",
    "products --g r3 --n r3 --p 7 --orbits",
    "products --p 7 --g abelian --n abelian --dim 2 --orbits --format json",
    "products --g n3 --n n3 --p 5 --orbits",
    "phi --p 2 --n n3",
    "phi --p 2 --n n3 --format json",
    "phi --p 2 --n n3 --limit -1",
    "phi --p 3 --n abelian --dim 2",
    "phi --p 3 --n r3_lambda --lam -1 --format json",
    "phi --p 3 --n abelian",
    "phi --p 3 --n r3_lambda",
    "phi --p 3 --n r3_lambda --lam 1/3",
    "phi --p 2 --n abelian --dim 4",
    "phi --p 3 --n abelian --dim 4",
    "phi --p 3 --n r3_lambda --lam half",
    "phi --n sl2 --p 5 --limit 400 --format json",
    "probe --g-class sl2 --p 5",
    "probe --g-class sl2 --p 5 --format json",
    "probe --g-class solvable --p 5",
    "probe --g-class perfect",
    "probe --g-class sl2 --p 3",
)

REFUSALS = (
    "catalog export NOPE",
    "catalog verify NOPE",
    "catalog export V9 --param beta=1",
    "catalog export V9 --param alpha=0.5",
    "catalog export V14 --param alpha1=0",
    "catalog export V16 --param alpha1=0",
    "catalog export V5 --field Fp:6",
    "catalog export V9 --field Fp:abc",
    "catalog export V9 --field Fp:05",
    "check %s/missing.json" % TMP,
    "frobnicate",
)


def document(entry_id, field):
    return "%s/%s.%s.json" % (TMP, entry_id, field.replace(":", ""))


def exports():
    """(document path, export argv) for every entry and field."""
    return [(document(entry_id, field),
             ["catalog", "export", entry_id, "--field", field])
            for entry_id in ENTRY_IDS for field in FIELDS]


def commands():
    """The argvs run after the exports, in a fixed order."""
    out = [["catalog", "list"], ["catalog", "list", "--format", "json"],
           ["catalog", "verify"], ["catalog", "verify", "--format", "json"],
           ["catalog", "verify", "V1", "V9"]]
    for path, _ in exports():
        for command in DOCUMENT_COMMANDS:
            out.append([command, path])
            out.append([command, path, "--format", "json"])
    out += [["search"] + line.split() for line in SEARCHES]
    out += [line.split() for line in REFUSALS]
    return out


def _digest(data):
    return hashlib.sha256(data).hexdigest()


def _runner(tree, workdir):
    env = dict(os.environ)
    env.pop("POSTLIE_GUARD", None)
    env["PYTHONPATH"] = str(Path(tree).resolve() / "src")
    real = str(workdir)

    def run(argv):
        """(exit code, stdout, stderr) of one command, with the temporary
        directory written `<tmp>` in its argv and its output."""
        proc = subprocess.run(
            [sys.executable, "-m", "postlie"]
            + [a.replace(TMP, real) for a in argv],
            cwd=real, env=env, capture_output=True, timeout=600, check=False)
        return (proc.returncode,
                proc.stdout.replace(real.encode(), TMP.encode()),
                proc.stderr.replace(real.encode(), TMP.encode()))
    return run


def fingerprints(tree, argvs=None):
    """[(command, exit code, sha256 of stdout, sha256 of stderr)] of the
    exports and then `commands()` on tree, or of the given argvs only."""
    docs = exports() if argvs is None else []
    argvs = ([argv for _, argv in docs]
             + (commands() if argvs is None else list(argvs)))
    with tempfile.TemporaryDirectory() as workdir, \
            ThreadPoolExecutor(WORKERS) as pool:
        run = _runner(tree, workdir)
        done = list(pool.map(run, argvs[:len(docs)]))
        for (path, _), (_, out, _) in zip(docs, done):
            Path(path.replace(TMP, workdir)).write_bytes(out)
        done += pool.map(run, argvs[len(docs):])
    return [(" ".join(argv), code, _digest(out), _digest(err))
            for argv, (code, out, err) in zip(argvs, done)]


def differences(first, second):
    """The rows of two fingerprint lists whose commands differ in exit
    code, stdout or stderr, as (command, first row, second row)."""
    return [(a[0], a, b) for a, b in zip(first, second) if a != b]


def main(argv):
    if len(argv) not in (1, 2):
        print("usage: cli_bytes.py TREE [OTHER]", file=sys.stderr)
        return 2
    rows = [fingerprints(tree) for tree in argv]
    if len(rows) == 1:
        for command, code, out, err in rows[0]:
            print("%3d %s %s %s" % (code, out, err, command))
        return 0
    diff = differences(*rows)
    for command, a, b in diff:
        print("differs: %s" % command)
        for tree, row in zip(argv, (a, b)):
            print("  %3d %s %s  %s" % (row[1], row[2], row[3], tree))
    print("%d commands, %d differ" % (len(rows[0]), len(diff)))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
