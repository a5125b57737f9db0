"""Command line front end.

Exit codes: 0 when the requested verification passed (or the command is
informational), 1 when tables were well-formed but an identity or an
expectation failed, 2 for unusable input (bad documents, bad parameters,
oversized sweeps), 141 when stdout was closed before the output was
written.  Output is deterministic for fixed inputs: tables,
reports, and JSON payloads are always emitted in sorted order.
"""

import argparse
import functools
import json
import os
import sys

from .catalog import (BUILTIN_NAMES, all_entries, builtin_algebra,
                      get_entry)
from .document import dumps_pair, read_pair
from .errors import (DocumentError, GuardError, ParameterError,
                     PostLieError, StructureError, UnsupportedFieldError)
from .fields import GF, QQ, field_from_name
from .lie import classify_low_dim
from .search import (SearchSpec, enumerate_products, nonexistence_probe,
                     orbit_reduce, phi_ansatz_sweep, decode_matrix)
from .structures import (all_right_multiplications_nilpotent,
                         derived_identity_audit, embed_semidirect,
                         is_complete_structure, sampled_left_mult_nilpotency,
                         special_case_detect, theorem_audit)


def _parse_field(raw):
    try:
        return field_from_name(raw)
    except ValueError:
        raise ParameterError("unknown field %r; use Q or Fp:<prime>" % raw)


def rational(text):
    """A rational literal 'a' or 'a/b' of the command line; argparse
    turns the ValueError of a bad one into a usage error."""
    return QQ.parse(text)


def limit(text):
    """A nonnegative count of the command line."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative, got %s" % text)
    return value


def _parse_params(pairs):
    out = {}
    for item in pairs or ():
        if "=" not in item:
            raise ParameterError("parameter %r is not of the form k=v" % item)
        key, _, val = item.partition("=")
        try:
            out[key.strip()] = rational(val)
        except ValueError:
            raise ParameterError("parameter %r has a non-rational value"
                                 % item)
    return out


def _emit(args, payload, lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _load(path):
    try:
        return read_pair(path)
    except OSError as exc:
        raise DocumentError(str(exc), path)


def _cmd_check(args):
    pair = _load(args.file)
    report = pair.full_report()
    payload = {"command": "check", "file": args.file,
               "field": pair.field.name, "dim": pair.dim,
               "report": report.as_dict()}
    lines = ["check: %s over %s, dim %d"
             % (report.subject, pair.field.name, pair.dim)]
    lines += ["  " + text for text in report.lines()]
    lines.append("result: %s" % ("PASS" if report.passed else "FAIL"))
    _emit(args, payload, lines)
    return 0 if report.passed else 1


def _classification_names(pair):
    names = {}
    if pair.field.is_rational and pair.dim <= 3:
        for label, alg in (("g", pair.g), ("n", pair.n)):
            cls = classify_low_dim(alg)
            names[label] = cls.name if cls.name is not None else "unrecognized"
    else:
        names["g"] = names["n"] = None
    return names


def _cmd_analyze(args):
    pair = _load(args.file)
    report = pair.full_report()
    if not report.passed:
        lines = ["analyze: tables failed verification"]
        lines += ["  " + text for text in report.lines() if "FAIL" in text]
        _emit(args, {"command": "analyze", "file": args.file,
                     "report": report.as_dict()}, lines)
        return 1
    cases = special_case_detect(pair)
    complete = is_complete_structure(pair)
    sampled = sampled_left_mult_nilpotency(pair, seed=args.seed)
    right_nil = all_right_multiplications_nilpotent(pair)
    audit = derived_identity_audit(pair)
    theorems = theorem_audit(pair)
    names = _classification_names(pair)
    payload = {
        "command": "analyze",
        "file": args.file,
        "field": pair.field.name,
        "dim": pair.dim,
        "tags": sorted(cases.tags),
        "scalar_ratio": None if cases.scalar_ratio is None
        else pair.field.format(cases.scalar_ratio),
        "complete": complete,
        "sampled_nilpotency_agrees": sampled == complete,
        "right_multiplications_nilpotent": right_nil,
        "identity_audit_passed": audit.passed,
        "classification": names,
        "theorems": theorems.as_dict(),
    }
    lines = ["analyze: %s over %s, dim %d"
             % (report.subject, pair.field.name, pair.dim),
             "  identities: pass",
             "  tags: %s" % (", ".join(sorted(cases.tags)) or "(none)")]
    if cases.scalar_ratio is not None:
        lines.append("  scalar ratio: %s"
                     % pair.field.format(cases.scalar_ratio))
    lines.append("  complete: %s" % ("yes" if complete else "no"))
    lines.append("  right multiplications nilpotent: %s"
                 % ("yes" if right_nil else "no"))
    lines.append("  sampled nilpotency agrees: %s"
                 % ("yes" if sampled == complete else "NO"))
    lines.append("  extended identity audit: %s"
                 % ("pass" if audit.passed else "FAIL"))
    if names["g"] is not None:
        lines.append("  classification: g %s, n %s" % (names["g"], names["n"]))
    verdicts = ", ".join("%s=%s" % (f.name, f.status)
                         for f in theorems.findings)
    lines.append("  theorems%s: %s"
                 % (" (advisory over this field)" if theorems.advisory else "",
                    verdicts))
    lines.append("result: %s"
                 % ("PASS" if audit.passed and theorems.consistent else "FAIL"))
    _emit(args, payload, lines)
    return 0 if audit.passed and theorems.consistent else 1


def _cmd_catalog_list(args):
    rows = []
    for entry in all_entries():
        rows.append({"id": entry.entry_id, "summary": entry.summary,
                     "parameters": list(entry.parameters),
                     "samples": len(entry.samples)})
    lines = []
    for row in rows:
        params = (" (%s)" % ", ".join(row["parameters"])
                  if row["parameters"] else "")
        lines.append("%-14s %s%s" % (row["id"], row["summary"], params))
    _emit(args, {"command": "catalog-list", "entries": rows}, lines)
    return 0


def _verify_entry_sample(entry, sample):
    try:
        pair = entry.build_sample(sample)
    except StructureError as exc:
        # every builder returns a validated pair, and `validate` attaches
        # its report to the error it raises
        return ["identities fail: %s" % ", ".join(
            item.name for item in exc.report.failures())]
    problems = []
    cases = special_case_detect(pair)
    missing = set(entry.expect_tags) - cases.tags
    if missing:
        problems.append("missing tags %s" % sorted(missing))
    banned = set(entry.forbid_tags) & cases.tags
    if banned:
        problems.append("forbidden tags %s" % sorted(banned))
    if entry.expect_complete is not None:
        got = is_complete_structure(pair)
        if got != entry.expect_complete:
            problems.append("complete is %s, catalog says %s"
                            % (got, entry.expect_complete))
    return problems


def _cmd_catalog_verify(args):
    entries = all_entries()
    if args.ids:
        entries = [get_entry(i) for i in args.ids]
    rows = []
    lines = []
    failures = 0
    for entry in entries:
        for sample in entry.samples:
            label = entry.sample_name(sample)
            problems = _verify_entry_sample(entry, sample)
            rows.append({"sample": label, "ok": not problems,
                         "problems": problems})
            if problems:
                failures += 1
                lines.append("%-18s MISMATCH: %s" % (label,
                                                     "; ".join(problems)))
            else:
                lines.append("%-18s ok" % label)
    lines.append("catalog: %d samples, %d mismatches" % (len(rows), failures))
    _emit(args, {"command": "catalog-verify", "samples": rows,
                 "mismatches": failures}, lines)
    return 0 if failures == 0 else 1


def _cmd_catalog_export(args):
    entry = get_entry(args.id)
    params = _parse_params(args.param)
    wanted = set(entry.parameters)
    if set(params) != wanted:
        if entry.samples and not params:
            params = dict(entry.samples[0])
        else:
            raise ParameterError(
                "entry %s takes parameters %s; got %s"
                % (entry.entry_id, sorted(wanted), sorted(params)))
    field = _parse_field(args.field)
    text = dumps_pair(entry.build_sample(params, field=field))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_search_products(args):
    field = GF(args.p)
    g = builtin_algebra(args.g, field=field, dim=args.dim, lam=args.lam)
    n = builtin_algebra(args.n, field=field, dim=args.dim, lam=args.lam)
    spec = SearchSpec(g, n, symmetric=not args.full)
    result = enumerate_products(spec)
    payload = {
        "command": "search-products",
        "p": args.p, "dim": spec.dim,
        "mode": "full" if args.full else "symmetric",
        "candidates": result.total,
        "hits": len(result.indices),
        "backend": result.backend,
        "indices": list(result.indices[:args.limit]),
    }
    lines = ["search products: g=%s n=%s over GF(%d), %s mode"
             % (args.g, args.n, args.p,
                "full" if args.full else "symmetric"),
             "  candidates: %d" % result.total,
             "  hits: %d" % len(result.indices),
             "  backend: %s" % result.backend]
    shown = result.indices[:args.limit]
    if shown:
        lines.append("  first indices: %s"
                     % " ".join(str(i) for i in shown))
    if args.orbits:
        dec = orbit_reduce(spec, result.indices)
        payload["orbit_count"] = dec.count
        payload["aut_order"] = dec.aut_order
        payload["orbit_sizes"] = sorted(len(o) for o in dec.orbits)
        payload["representatives"] = list(dec.representatives())
        lines.append("  orbits: %d under %d automorphisms (sizes %s)"
                     % (dec.count, dec.aut_order,
                        ",".join(str(s) for s in
                                 sorted(len(o) for o in dec.orbits))))
    _emit(args, payload, lines)
    return 0


def _cmd_search_phi(args):
    field = GF(args.p)
    n_alg = builtin_algebra(args.n, field=field, dim=args.dim, lam=args.lam)
    result = phi_ansatz_sweep(n_alg)
    payload = {
        "command": "search-phi",
        "p": args.p, "n": args.n,
        "candidates": result.total,
        "hits": len(result.indices),
        "backend": result.backend,
        "indices": list(result.indices[:args.limit]),
    }
    lines = ["search phi: n=%s over GF(%d)" % (args.n, args.p),
             "  candidates: %d" % result.total,
             "  hits: %d" % len(result.indices),
             "  backend: %s" % result.backend]
    if len(result.indices) <= args.limit:
        mats = []
        for index in result.indices:
            flat = decode_matrix(field, n_alg.dim, index).raw_flat()
            rows = [list(flat[r * n_alg.dim:(r + 1) * n_alg.dim])
                    for r in range(n_alg.dim)]
            mats.append({"index": index, "phi": rows})
            lines.append("  phi #%d: %s" % (index, rows))
        payload["matrices"] = mats
    _emit(args, payload, lines)
    return 0


def _cmd_search_probe(args):
    result = nonexistence_probe(args.g_class, p=args.p)
    counts = {k: result.class_counts[k] for k in sorted(result.class_counts)}
    payload = {
        "command": "search-probe",
        "p": result.p,
        "g_class": result.g_class,
        "n_class": result.n_class,
        "candidates": result.total,
        "structures": len(result.hits),
        "matching": len(result.matching),
        "matching_indices": list(result.matching),
        "induced_classes": counts,
        "banner": result.banner,
    }
    lines = ["probe: first bracket class %r with second bracket %r over GF(%d)"
             % (result.g_class, result.n_class, result.p),
             "  candidates: %d" % result.total,
             "  structures found: %d" % len(result.hits),
             "  induced first-bracket classes: %s"
             % (", ".join("%s=%d" % kv for kv in counts.items()) or "(none)"),
             "  matching the requested class: %d" % len(result.matching),
             "NOTE: %s" % result.banner]
    _emit(args, payload, lines)
    return 0


def _cmd_embed(args):
    pair = _load(args.file)
    report = pair.full_report()
    if not report.passed:
        _emit(args, {"command": "embed", "file": args.file,
                     "report": report.as_dict()},
              ["embed: tables failed verification"])
        return 1
    emb = embed_semidirect(pair)
    payload = {
        "command": "embed",
        "file": args.file,
        "ambient_dim": emb.semidirect.dim,
        "derivation_dim": emb.derivations.dim,
        "passed": emb.passed,
        "report": emb.report.as_dict(),
        "images": [[pair.field.format(c) for c in vec]
                   for vec in emb.images],
    }
    lines = ["embed: into n with its derivations, ambient dim %d"
             % emb.semidirect.dim,
             "  derivation algebra dim: %d" % emb.derivations.dim]
    lines += ["  " + text for text in emb.report.lines()]
    lines.append("result: %s" % ("PASS" if emb.passed else "FAIL"))
    _emit(args, payload, lines)
    return 0 if emb.passed else 1


def _cmd_audit(args):
    pair = _load(args.file)
    report = pair.full_report()
    if not report.passed:
        _emit(args, {"command": "audit", "file": args.file,
                     "report": report.as_dict()},
              ["audit: tables failed verification"])
        return 1
    audit = derived_identity_audit(pair)
    theorems = theorem_audit(pair)
    ok = audit.passed and theorems.consistent
    payload = {
        "command": "audit",
        "file": args.file,
        "identities": audit.as_dict(),
        "theorems": theorems.as_dict(),
        "passed": ok,
    }
    lines = ["audit: %s" % (pair.name or "pair")]
    lines += ["  " + text for text in audit.lines()]
    for f in theorems.findings:
        detail = " (%s)" % f.detail if f.detail else ""
        lines.append("  theorem %s: %s%s" % (f.name, f.status, detail))
    if theorems.advisory:
        lines.append("  note: theorem checks are advisory over %s"
                     % pair.field.name)
    lines.append("result: %s" % ("PASS" if ok else "FAIL"))
    _emit(args, payload, lines)
    return 0 if ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="postlie",
        description="verify, analyze, enumerate, and export structure "
                    "products on pairs of bracket tables")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json"), default="text",
                        help="output format (default text)")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", parents=[common],
                             help="verify the identities of a document")
    p_check.add_argument("file")
    p_check.set_defaults(func=_cmd_check)

    p_an = sub.add_parser("analyze", parents=[common],
                          help="full structural analysis of a document")
    p_an.add_argument("file")
    p_an.add_argument("--seed", type=int, default=0,
                      help="seed for the sampled nilpotency cross-check")
    p_an.set_defaults(func=_cmd_analyze)

    p_cat = sub.add_parser("catalog", help="built-in structure families")
    cat_sub = p_cat.add_subparsers(dest="catalog_command", required=True)
    p_list = cat_sub.add_parser("list", parents=[common],
                                help="list catalog entries")
    p_list.set_defaults(func=_cmd_catalog_list)
    p_ver = cat_sub.add_parser("verify", parents=[common],
                               help="rebuild and verify catalog samples")
    p_ver.add_argument("ids", nargs="*", metavar="ID")
    p_ver.set_defaults(func=_cmd_catalog_verify)
    p_exp = cat_sub.add_parser("export", parents=[common],
                               help="emit one entry as a JSON document")
    p_exp.add_argument("id", metavar="ID")
    p_exp.add_argument("--param", action="append", metavar="K=V",
                       help="family parameter, repeatable")
    p_exp.add_argument("--field", default="Q", help="Q (default) or Fp:<p>")
    p_exp.add_argument("-o", "--output", help="write to a file, not stdout")
    p_exp.set_defaults(func=_cmd_catalog_export)

    p_search = sub.add_parser("search", help="exhaustive finite-field sweeps")
    search_sub = p_search.add_subparsers(dest="search_command", required=True)
    p_prod = search_sub.add_parser("products", parents=[common],
                                   help="enumerate structure products on a "
                                        "fixed bracket pair over GF(p)")
    p_prod.add_argument("--p", type=int, required=True, help="field size")
    p_prod.add_argument("--g", required=True, choices=BUILTIN_NAMES)
    p_prod.add_argument("--n", required=True, choices=BUILTIN_NAMES)
    p_prod.add_argument("--dim", type=int, default=None,
                        help="dimension for the abelian table")
    p_prod.add_argument("--lam", type=rational, default=None,
                        help="eigenvalue for the r3_lambda table, 'a' or "
                             "'a/b', read mod p")
    p_prod.add_argument("--full", action="store_true",
                        help="sweep raw tensors instead of the skew-reduced "
                             "parametrization")
    p_prod.add_argument("--orbits", action="store_true",
                        help="also group hits by joint bracket automorphisms")
    p_prod.add_argument("--limit", type=limit, default=25,
                        help="how many hit indices to print")
    p_prod.set_defaults(func=_cmd_search_products)
    p_phi = search_sub.add_parser("phi", parents=[common],
                                  help="sweep endomorphism-induced products "
                                       "x.y = {phi x, y}")
    p_phi.add_argument("--p", type=int, required=True)
    p_phi.add_argument("--n", default="sl2", choices=BUILTIN_NAMES)
    p_phi.add_argument("--dim", type=int, default=None,
                       help="dimension for the abelian table")
    p_phi.add_argument("--lam", type=rational, default=None,
                       help="eigenvalue for the r3_lambda table, 'a' or "
                            "'a/b', read mod p")
    p_phi.add_argument("--limit", type=limit, default=25)
    p_phi.set_defaults(func=_cmd_search_phi)
    p_probe = search_sub.add_parser("probe", parents=[common],
                                    help="existence probe for a first-"
                                         "bracket class against the simple "
                                         "second bracket")
    p_probe.add_argument("--g-class", required=True, dest="g_class")
    p_probe.add_argument("--p", type=int, default=5)
    p_probe.set_defaults(func=_cmd_search_probe)

    p_embed = sub.add_parser("embed", parents=[common],
                             help="realize a document inside n with its "
                                  "derivation algebra")
    p_embed.add_argument("file")
    p_embed.set_defaults(func=_cmd_embed)

    p_audit = sub.add_parser("audit", parents=[common],
                             help="extended identity and theorem audit of a "
                                  "document")
    p_audit.add_argument("file")
    p_audit.set_defaults(func=_cmd_audit)
    return parser


@functools.cache
def _parser():
    """The parser `main` shares between calls: parse_args leaves it
    unchanged and builds a fresh namespace each time."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (DocumentError, ParameterError, GuardError,
            UnsupportedFieldError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    except StructureError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except PostLieError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


def run():
    """`main` as a process.  A reader that closes stdout early ends it
    with exit 141, as SIGPIPE would (128 + 13), and no traceback: stdout
    is pointed at devnull so that the flush at exit stays silent."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 141
    sys.exit(code)


if __name__ == "__main__":
    run()
