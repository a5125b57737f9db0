#!/usr/bin/env python3
"""Generate the frozen failure reports of `check` and `audit`.

Each document below breaks one thing: one of the three pair identities,
or the Jacobi identity of g or of n.  Every document is written over Q
and over GF(5), and `check` and `audit` run on it in text and in json
through `postlie.cli.main`.  The output file holds the documents and the
exit code, stdout and stderr of every run; `tests/test_cli.py` replays
them, so any change in how a witness or a discrepancy is reduced or
printed fails there.

Usage, from the root of a source tree:

    PYTHONPATH=src python3 tools/gen_golden_failure_reports.py \
        > tests/golden/failure_reports.json
"""

import contextlib
import io
import json
import os
import sys
import tempfile

from postlie.cli import main

# 1-based slots, as in the document format; coefficients are read into
# each field, so a fraction becomes a residue over GF(5)
_BROKEN_JACOBI = [{"i": 1, "j": 2, "coeffs": {"2": "1"}},
                  {"i": 1, "j": 3, "coeffs": {"3": "1"}},
                  {"i": 2, "j": 3, "coeffs": {"1": "1/3"}}]


def _negate(text):
    return text[1:] if text.startswith("-") else "-" + text


DOCUMENTS = {
    # e1.e2 = e1/2 - 3 e2 with g = n abelian: only the skew part breaks
    "skew-part": {"dim": 2, "g": [], "n": [], "product": [
        {"i": 1, "j": 2, "coeffs": {"1": "1/2", "2": "-3"}}]},
    # a commutative product that is not left-commutative
    "module-action": {"dim": 2, "g": [], "n": [], "product": [
        {"i": 1, "j": 1, "coeffs": {"2": "2/3"}},
        {"i": 2, "j": 2, "coeffs": {"1": "-6/7"}}]},
    # L(e1) is not a derivation of r2
    "derivation-action": {
        "dim": 2, "g": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}],
        "n": [{"i": 1, "j": 2, "coeffs": {"2": "1"}}],
        "product": [{"i": 1, "j": 1, "coeffs": {"1": "3/4"}}]},
    "g-jacobi": {"dim": 3, "g": _BROKEN_JACOBI, "n": [], "product": []},
    # g abelian, and the product carries the skew part -{x,y}
    "n-jacobi": {"dim": 3, "g": [], "n": _BROKEN_JACOBI, "product": [
        {"i": e["i"], "j": e["j"],
         "coeffs": {k: _negate(v) for k, v in e["coeffs"].items()}}
        for e in _BROKEN_JACOBI]},
}

FIELDS = ("Q", "Fp:5")
COMMANDS = ("check", "audit")
FORMATS = ("text", "json")


def documents():
    """{file name: document} for every broken document over every field."""
    out = {}
    for label, body in DOCUMENTS.items():
        for field in FIELDS:
            name = "%s-%s.json" % (label, field.replace(":", ""))
            out[name] = dict(body, field=field, name=label)
    return out


def run(name, command, fmt):
    """Exit code, stdout and stderr of one command on a file in the
    current directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command, name, "--format", fmt])
    return {"code": code, "out": out.getvalue(), "err": err.getvalue()}


def record():
    docs = documents()
    runs = []
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, doc in docs.items():
                with open(name, "w", encoding="utf-8") as handle:
                    json.dump(doc, handle)
                for command in COMMANDS:
                    for fmt in FORMATS:
                        runs.append(dict(run(name, command, fmt), file=name,
                                         command=command, format=fmt))
        finally:
            os.chdir(here)
    return {"documents": docs, "runs": runs}


if __name__ == "__main__":
    json.dump(record(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
