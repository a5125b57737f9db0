"""The benchmark workloads: inputs from a seed, one pass through the public
API, and the oracle for that pass.

A workload's `run` calls postlie through module attributes (for example
`search.enumerate_products`) so that the traced run's wrappers are seen.
`observe` reduces a pass to facts that do not depend on the seed; they
must equal the ones recorded in `expected.json`.  Seed-dependent results
are checked by invariants in `check` instead.  `run` calls `tick()`
between the steps of a pass; the timed runs use it to time the reference
loop there.
"""

import hashlib
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter

from postlie import catalog, cli, document, linalg, search
from postlie.errors import ParameterError
from postlie.fields import GF

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def no_tick():
    pass


def digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def differences(observed, expected, where=""):
    """Human-readable paths where two JSON-like values differ."""
    if isinstance(observed, dict) and isinstance(expected, dict):
        out = []
        for key in sorted(set(observed) | set(expected)):
            out += differences(observed.get(key), expected.get(key),
                               "%s/%s" % (where, key))
        return out
    if observed != expected:
        return ["%s: got %r, expected %r" % (where or "/", observed, expected)]
    return []


@dataclass
class Tally:
    """What one pass attempted and how much of it failed."""

    attempted: int = 0
    failures: list = field(default_factory=list)
    tables: int = 0
    candidates: int = 0
    op_ms: list = field(default_factory=list)
    details: dict = field(default_factory=dict)

    def op(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failures.append(message)


def random_invertible(rng, field, dim):
    while True:
        T = linalg.Matrix(field, [[rng.randrange(field.p) for _ in range(dim)]
                                  for _ in range(dim)])
        if linalg.inverse(T) is not None:
            return T


@dataclass
class PhiInputs:
    algebras: tuple         # ((name, algebra in the seed-drawn basis), ...)
    basis_change: object    # the seed-drawn T in GL3(3)


class PhiGf3:
    """phi_ansatz_sweep, the path of `postlie search phi`, over all 3^9
    endomorphisms of sl2 and of r3 over GF(3), each written in a
    seed-drawn basis: mostly the phi kernel, and the exact layers see the
    230 hits only through re-verification."""

    name = "phi-gf3"
    algebra_names = ("sl2", "r3")

    def setup(self, seed, workdir):
        field3 = GF(3)
        T = random_invertible(random.Random(seed), field3, 3)
        return PhiInputs(
            algebras=tuple((name, catalog.builtin_algebra(name, field=field3)
                            .change_basis(T))
                           for name in self.algebra_names),
            basis_change=T)

    def run(self, inputs, kernel=None, tick=no_tick):
        out = []
        for name, algebra in inputs.algebras:
            out.append((name, search.phi_ansatz_sweep(algebra, kernel=kernel)))
            tick()
        return out

    def hit_lists(self, sweeps):
        return tuple(result.indices for _, result in sweeps)

    def observe(self, inputs, sweeps):
        """Counts, and the hits carried back to the builtin basis: a hit
        phi in the basis T e_i is T^-1 phi T of one in the builtin basis."""
        T = inputs.basis_change
        back = linalg.inverse(T)
        out = {}
        for name, result in sweeps:
            field = result.n.field
            out[name] = {
                "candidates": result.total, "hits": len(result.indices),
                "canonical_hits_sha256": digest(sorted(
                    search.encode_matrix(
                        T * search.decode_matrix(field, 3, index) * back)
                    for index in result.indices))}
        return out

    def check(self, inputs, sweeps):
        tally = Tally()
        expected = load_expected()[self.name]
        observed = self.observe(inputs, sweeps)
        for name, result in sweeps:
            tally.tables += len(result.indices)
            tally.candidates += result.total
            wrong = differences(observed[name], expected[name])
            tally.op(not wrong, "phi %s: %s" % (name, "; ".join(wrong)))
        return tally


@dataclass
class ProductInputs:
    specs: tuple            # ((label, SearchSpec), ...)
    basis_change: object    # the seed-drawn T for spec b
    base_b: object          # spec b before conjugation by T


def conjugated_n3_spec(seed):
    """n3/n3 over GF(2) with both tables written in the basis T e_i for a
    seed-drawn T in GL3(2); returns (spec, T, unconjugated spec)."""
    field2 = GF(2)
    n3 = catalog.builtin_algebra("n3", field=field2)
    T = random_invertible(random.Random(seed), field2, 3)
    moved = n3.change_basis(T)
    return (search.SearchSpec(moved, moved), T,
            search.SearchSpec(n3, n3))


class ProductsOrbits:
    """enumerate_products then orbit_reduce: abelian/abelian over GF(7) is
    mostly exact re-verification and 12k orbit transforms, conjugated
    n3/n3 over GF(2) is mostly the dim-3 product kernel."""

    name = "products-orbits"

    def setup(self, seed, workdir):
        abelian = catalog.builtin_algebra("abelian", field=GF(7), dim=2)
        spec_b, T, base_b = conjugated_n3_spec(seed)
        return ProductInputs(
            specs=(("a", search.SearchSpec(abelian, abelian)),
                   ("b", spec_b)),
            basis_change=T, base_b=base_b)

    def run(self, inputs, kernel=None, tick=no_tick):
        out = []
        for label, spec in inputs.specs:
            result = search.enumerate_products(spec, kernel=kernel)
            tick()
            orbits = search.orbit_reduce(spec, result.indices, kernel=kernel)
            out.append((label, result, orbits))
            tick()
        return out

    def hit_lists(self, passes):
        return tuple((r.indices, o.orbits) for _, r, o in passes)

    def observe(self, inputs, passes):
        out = {}
        for label, result, orbits in passes:
            row = {"candidates": result.total, "hits": len(result.indices),
                   "orbits": orbits.count, "aut_order": orbits.aut_order,
                   "orbit_sizes": sorted(len(o) for o in orbits.orbits)}
            if label == "b":
                back = linalg.inverse(inputs.basis_change)
                row["canonical_hits_sha256"] = digest(sorted(
                    search.encode_product(
                        inputs.base_b,
                        search.decode_product(result.spec, i)
                        .change_basis(back))
                    for i in result.indices))
            else:
                row["hits_sha256"] = digest(result.indices)
            out[label] = row
        return out

    def check(self, inputs, passes):
        tally = Tally()
        expected = load_expected()[self.name]
        observed = self.observe(inputs, passes)
        for label, result, orbits in passes:
            tally.tables += len(result.indices)
            tally.candidates += result.total
            wrong = differences(observed[label], expected[label])
            tally.op(not wrong, "spec %s: %s" % (label, "; ".join(wrong)))
        return tally


CLI_COMMANDS = ("check", "analyze", "embed", "audit")


@dataclass
class Table:
    label: str
    pair: object
    seeded: bool
    path: Path
    reread: Path


def draw_parameters(rng, entry, tries=100):
    """Seed-drawn small rationals for a parametric family; a draw the
    family rejects with ParameterError is drawn again."""
    for _ in range(tries):
        params = {name: Fraction(rng.randint(-6, 6), rng.randint(1, 4))
                  for name in entry.parameters}
        try:
            return params, entry.build_sample(params)
        except ParameterError:
            continue
    raise RuntimeError("no admissible draw for %s in %d tries"
                       % (entry.entry_id, tries))


def cli_op(command, path):
    """One in-process CLI call: (exit code or exception text, stdout, ms)."""
    out = io.StringIO()
    begin = perf_counter()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        try:
            code = cli.main([command, str(path)])
        except Exception as exc:  # reported as a failed op by check()
            code = "exception %s: %s" % (type(exc).__name__, exc)
    return code, out.getvalue(), (perf_counter() - begin) * 1e3


class CatalogQ:
    """Every catalog sample over Q plus seed-drawn family members through
    dumps/loads and the CLI's check, analyze, embed and audit: exact
    Fraction work and no kernel."""

    name = "catalog-q"
    draws_per_family = 2

    def setup(self, seed, workdir):
        rng = random.Random(seed)
        tables = []
        for entry in catalog.all_entries():
            built = [(sample, entry.build_sample(sample), False)
                     for sample in entry.samples]
            if entry.parameters:
                built += [draw_parameters(rng, entry) + (True,)
                          for _ in range(self.draws_per_family)]
            for sample, pair, seeded in built:
                stem = workdir / ("%03d" % len(tables))
                label = entry.sample_name(sample)
                tables.append(Table(("seed:" if seeded else "") + label, pair,
                                    seeded, stem.with_suffix(".json"),
                                    stem.with_suffix(".reread.json")))
        return tables

    def run(self, inputs, kernel=None, tick=no_tick):
        rows = []
        for table in inputs:
            text = document.dumps_pair(table.pair)
            again = document.dumps_pair(document.loads_pair(text))
            table.path.write_text(text, encoding="utf-8")
            ops = {command: cli_op(command, table.path)
                   for command in CLI_COMMANDS}
            if table.seeded:
                table.reread.write_text(again, encoding="utf-8")
                ops["analyze-reread"] = cli_op("analyze", table.reread)
            rows.append((text, again, ops))
            tick()
        return rows

    def hit_lists(self, rows):
        return None

    def observe(self, inputs, rows):
        out = {}
        for table, (text, _, ops) in zip(inputs, rows):
            if table.seeded:
                continue
            out[table.label] = {"document_sha256": digest([text])}
            for command in CLI_COMMANDS:
                code, stdout, _ = ops[command]
                out[table.label][command] = digest([code, stdout])
        return out

    def check(self, inputs, rows):
        tally = Tally(tables=len(inputs))
        observed = self.observe(inputs, rows)
        expected = load_expected()[self.name]
        for table, (text, again, ops) in zip(inputs, rows):
            label = table.label
            tally.op_ms += [ms for _, _, ms in ops.values()]
            if not table.seeded:
                mine, record = observed[label], expected.get(label, {})
                tally.op(text == again and mine["document_sha256"]
                         == record.get("document_sha256"),
                         "%s: document differs from the record or does not "
                         "round-trip" % label)
                for command in CLI_COMMANDS:
                    tally.op(mine[command] == record.get(command),
                             "%s %s: output differs from the record"
                             % (label, command))
                continue
            codes = {command: op[0] for command, op in ops.items()}
            tally.op(text == again, "%s: round-trip not byte-identical"
                     % label)
            tally.op(codes["check"] == 0, "%s check: exit %r"
                     % (label, codes["check"]))
            tally.op(codes["embed"] == 0, "%s embed: exit %r"
                     % (label, codes["embed"]))
            tally.op(codes["audit"] in (0, 1), "%s audit: exit %r"
                     % (label, codes["audit"]))
            tally.op(codes["analyze"] in (0, 1), "%s analyze: exit %r"
                     % (label, codes["analyze"]))
            tally.op(ops["analyze"][:2] == ops["analyze-reread"][:2],
                     "%s analyze: differs between original and re-read"
                     % label)
        for label in sorted(set(expected) - set(observed)):
            tally.op(False, "%s: recorded sample was not run" % label)
        tally.details["V9(0) complete"] = self._complete(inputs, rows, "V9(0)")
        return tally

    @staticmethod
    def _complete(inputs, rows, label):
        for table, (_, _, ops) in zip(inputs, rows):
            if table.label == label:
                lines = ops["analyze"][1].splitlines()
                flag = [line.split(":")[1].strip() for line in lines
                        if line.strip().startswith("complete:")]
                return flag[0] == "yes" if flag else None
        return None


WORKLOADS = {w.name: w for w in (PhiGf3(), ProductsOrbits(), CatalogQ())}
