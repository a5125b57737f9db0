"""End-to-end command line tests, run in process through main(argv)."""

import dataclasses
import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

from postlie import cli, fpkernel, structures
from postlie.catalog import all_entries, builtin_algebra
from postlie.cli import build_parser, main
from postlie.document import read_pair
from postlie.fields import GF, QQ
from postlie.fpkernel import BACKEND
from postlie.lie import LieAlgebra
from postlie.search import (BANNER, GUARD_ENV, SearchSpec,
                            enumerate_products, orbit_reduce,
                            phi_ansatz_sweep)
from postlie.structures import BilinearProduct, PostLiePair

GOLDEN = Path(__file__).parent / "golden"
TOOLS = Path(__file__).parent.parent / "tools"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def v5_doc(tmp_path, capsys):
    path = tmp_path / "v5.json"
    code = main(["catalog", "export", "V5", "-o", str(path)])
    capsys.readouterr()
    assert code == 0
    return path


def test_check_pass(capsys, v5_doc):
    code, out, err = _run(capsys, ["check", str(v5_doc)])
    assert code == 0
    assert "result: PASS" in out
    assert err == ""


def test_check_fail_exit_one(capsys, tmp_path, v5_doc):
    doc = json.loads(v5_doc.read_text())
    # an unmatched off-diagonal slot violates the skew-part identity
    doc["product"].append({"i": 1, "j": 2, "coeffs": {"1": "1"}})
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["check", str(bad)])
    assert code == 1
    assert "result: FAIL" in out
    assert "FAIL" in out


def test_check_document_errors_exit_two(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    code, out, err = _run(capsys, ["check", str(missing)])
    assert code == 2 and "error:" in err

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    code, out, err = _run(capsys, ["check", str(garbage)])
    assert code == 2 and "error:" in err


def test_analyze_json_payload(capsys, v5_doc):
    code, out, err = _run(capsys, ["analyze", str(v5_doc), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {
        "command", "file", "field", "dim", "tags", "scalar_ratio",
        "complete", "sampled_nilpotency_agrees",
        "right_multiplications_nilpotent", "identity_audit_passed",
        "classification", "theorems",
    }
    assert payload["command"] == "analyze"
    assert payload["field"] == "Q"
    assert payload["complete"] is True
    assert payload["identity_audit_passed"] is True
    assert payload["sampled_nilpotency_agrees"] is True
    assert payload["classification"]["g"] is not None


def test_analyze_text_lines(capsys, v5_doc):
    code, out, err = _run(capsys, ["analyze", str(v5_doc)])
    assert code == 0
    assert "  identities: pass" in out
    assert "  complete: yes" in out
    assert "result: PASS" in out


def test_analyze_rejects_broken_tables(capsys, tmp_path, v5_doc):
    doc = json.loads(v5_doc.read_text())
    doc["g"] = [{"i": 1, "j": 2, "coeffs": {"1": "1"}}]
    bad = tmp_path / "broken.json"
    bad.write_text(json.dumps(doc))
    code, out, err = _run(capsys, ["analyze", str(bad)])
    assert code == 1
    assert "failed verification" in out


def test_catalog_list(capsys):
    code, out, err = _run(capsys, ["catalog", "list"])
    assert code == 0
    lines = out.splitlines()
    for k in range(17):
        assert lines[k].startswith("V%d " % (k + 1))

    code, out, err = _run(capsys, ["catalog", "list", "--format", "json"])
    payload = json.loads(out)
    ids = [row["id"] for row in payload["entries"]]
    assert ids == [e.entry_id for e in all_entries()]


def test_catalog_verify_all(capsys):
    code, out, err = _run(capsys, ["catalog", "verify", "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["mismatches"] == 0
    # every entry has a sample: one without parameters has the empty one
    assert all(e.samples for e in all_entries())
    assert len(payload["samples"]) == sum(len(e.samples)
                                          for e in all_entries())


def test_catalog_verify_deterministic(capsys):
    code, first, _ = _run(capsys, ["catalog", "verify", "V1", "V9"])
    assert code == 0
    code, second, _ = _run(capsys, ["catalog", "verify", "V1", "V9"])
    assert first == second
    assert first.splitlines()[-1].endswith("0 mismatches")


def _broken_v2(field=QQ):
    # e1.e1 = e2 and e2.e2 = e1 on abelian g and n: L(e1) and L(e2) do
    # not commute, so module-action alone fails
    zero = LieAlgebra(field, 2, {})
    product = BilinearProduct(field, 2, {(0, 0): {1: 1}, (1, 1): {0: 1}})
    return PostLiePair(zero, zero, product).validate()


def test_catalog_verify_lists_an_entry_that_fails_to_build(capsys,
                                                          monkeypatch):
    entries = tuple(dataclasses.replace(e, build=_broken_v2)
                    if e.entry_id == "V2" else e for e in all_entries())
    monkeypatch.setattr(cli, "all_entries", lambda: entries)
    code, out, err = _run(capsys, ["catalog", "verify"])
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert lines[:2] == ["%-18s ok" % "V1", "%-18s MISMATCH: identities "
                         "fail: module-action" % "V2"]
    assert sum(line.endswith(" ok") for line in lines) == 36
    assert lines[-1] == "catalog: 37 samples, 1 mismatches"
    code, out, err = _run(capsys, ["catalog", "verify", "--format", "json"])
    payload = json.loads(out)
    assert (code, payload["mismatches"]) == (1, 1)
    assert payload["samples"][1] == {
        "sample": "V2", "ok": False,
        "problems": ["identities fail: module-action"]}


def test_catalog_verify_checks_each_sample_once(capsys, monkeypatch):
    calls = []
    check = structures.check_structure

    def counted(*args):
        calls.append(args)
        return check(*args)
    monkeypatch.setattr(structures, "check_structure", counted)
    code, out, err = _run(capsys, ["catalog", "verify"])
    assert code == 0
    assert len(calls) == sum(len(e.samples) for e in all_entries()) == 37


@pytest.mark.parametrize("command", ["export", "verify"])
def test_catalog_refuses_an_unknown_id(capsys, command):
    code, out, err = _run(capsys, ["catalog", command, "NOPE"])
    assert (code, out, err) == (2, "", "error: no catalog entry 'NOPE'\n")


def test_catalog_export_param_round_trip(tmp_path, capsys):
    path = tmp_path / "v9.json"
    code, out, err = _run(capsys, ["catalog", "export", "V9",
                                   "--param", "alpha=2", "-o", str(path)])
    assert code == 0
    pair = read_pair(str(path))
    pair.g.validate()
    pair.n.validate()
    pair.validate()
    assert pair.name == "V9(2)"

    # parameterless exports default to the first listed sample
    code, out, err = _run(capsys, ["catalog", "export", "V9"])
    assert code == 0 and json.loads(out)["name"] == "V9(0)"


def test_catalog_export_stdout_deterministic(capsys):
    code, first, _ = _run(capsys, ["catalog", "export", "V5"])
    code, second, _ = _run(capsys, ["catalog", "export", "V5"])
    assert first == second
    assert first.endswith("\n")


def test_catalog_export_finite_field(tmp_path, capsys):
    path = tmp_path / "v5_f7.json"
    code, out, err = _run(capsys, ["catalog", "export", "V5",
                                   "--field", "Fp:7", "-o", str(path)])
    assert code == 0
    pair = read_pair(str(path))
    assert pair.field.name == "Fp:7"


def test_catalog_export_errors(capsys):
    code, out, err = _run(capsys, ["catalog", "export", "V99"])
    assert code == 2 and "error:" in err
    code, out, err = _run(capsys, ["catalog", "export", "V9",
                                   "--param", "beta=1"])
    assert code == 2 and "error:" in err
    # the grammar of --lam and of documents: 'a' or 'a/b', no decimals
    for value in ("two", "0.5", "1e1"):
        code, out, err = _run(capsys, ["catalog", "export", "V9",
                                       "--param", "alpha=" + value])
        assert code == 2 and "error:" in err
    code, out, err = _run(capsys, ["catalog", "export", "V5",
                                   "--field", "Fp:6"])
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("field", ["Fp:abc", "Fp:"])
def test_catalog_export_refuses_a_modulus_that_is_no_integer(capsys, field):
    code, out, err = _run(capsys, ["catalog", "export", "V9",
                                   "--field", field])
    assert code == 2 and out == ""
    assert err == ("error: unknown field %r; use Q or Fp:<prime>\n"
                   % field)


@pytest.mark.parametrize("field", ["Fp:0_5", "Fp:05", "Fp:+5", "Fp: 5",
                                   "Fp:5 "])
def test_catalog_export_refuses_a_field_name_that_is_not_canonical(capsys,
                                                                   field):
    # a field is named only as `Field.name` writes it, so a document
    # written with --field reads back byte-identical
    code, out, err = _run(capsys, ["catalog", "export", "V9",
                                   "--field", field])
    assert code == 2 and out == ""
    assert err == ("error: unknown field %r; use Q or Fp:<prime>\n"
                   % field)


def test_catalog_export_field_names_that_stay(capsys):
    for field in ("Q", "Fp:5"):
        code, out, _ = _run(capsys, ["catalog", "export", "V5",
                                     "--field", field])
        assert code == 0 and json.loads(out)["field"] == field
    code, out, err = _run(capsys, ["catalog", "export", "V5",
                                   "--field", "Fp:6"])
    assert code == 2 and out == ""
    assert err == "error: modulus must be a prime below 2**16, got 6\n"


def test_catalog_export_refuses_a_zero_alpha1(capsys):
    for entry in ("V14", "V16"):
        code, out, err = _run(capsys, ["catalog", "export", entry,
                                       "--param", "alpha1=0"])
        assert code == 2 and out == ""
        assert err == "error: %s requires alpha1 nonzero\n" % entry


@pytest.mark.parametrize("command", [
    ["products", "--p", "3", "--g", "r2", "--n", "r2"],
    ["phi", "--p", "2", "--n", "n3"]])
def test_search_refuses_a_negative_limit(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main(["search"] + command + ["--limit", "-1"])
    assert exc.value.code == 2
    assert "--limit: must be nonnegative" in capsys.readouterr().err


def test_search_products_frozen_counts(capsys):
    argv = ["search", "products", "--p", "3", "--g", "abelian",
            "--n", "abelian", "--dim", "2", "--orbits"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    assert "  candidates: 729" in out
    assert "  hits: 105" in out
    assert "  backend: %s" % BACKEND in out
    assert ("  orbits: 6 under 48 automorphisms "
            "(sizes 1,8,24,24,24,24)") in out

    code, first, _ = _run(capsys, argv + ["--format", "json"])
    payload = json.loads(first)
    assert payload["candidates"] == 729
    assert payload["hits"] == 105
    assert payload["orbit_count"] == 6
    assert payload["aut_order"] == 48
    assert payload["orbit_sizes"] == [1, 8, 24, 24, 24, 24]
    assert len(payload["indices"]) == 25
    code, second, _ = _run(capsys, argv + ["--format", "json"])
    assert first == second


def test_search_products_full_mode(capsys):
    argv = ["search", "products", "--p", "2", "--g", "abelian",
            "--n", "abelian", "--dim", "2", "--full", "--format", "json"]
    code, out, err = _run(capsys, argv)
    assert code == 0
    payload = json.loads(out)
    assert payload["mode"] == "full"
    assert payload["candidates"] == 256


def test_search_products_bad_args(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["search", "products", "--p", "3", "--g", "bogus",
              "--n", "abelian"])
    assert exc.value.code == 2
    capsys.readouterr()
    # abelian tables need an explicit dimension
    code, out, err = _run(capsys, ["search", "products", "--p", "3",
                                   "--g", "abelian", "--n", "abelian"])
    assert code == 2 and "error:" in err
    code, out, err = _run(capsys, ["search", "products", "--p", "4",
                                   "--g", "r2", "--n", "r2"])
    assert code == 2 and "error:" in err


def test_search_phi(capsys):
    code, out, err = _run(capsys, ["search", "phi", "--p", "2", "--n", "n3"])
    assert code == 0
    assert "search phi: n=n3 over GF(2)" in out
    assert "  candidates: 512" in out
    code, out, err = _run(capsys, ["search", "phi", "--p", "2", "--n", "n3",
                                   "--format", "json"])
    payload = json.loads(out)
    assert payload["candidates"] == 512
    assert payload["backend"] == BACKEND
    assert all(m["index"] in payload["indices"]
               for m in payload.get("matrices", []))


def test_search_dim_and_lam_options(capsys):
    # abelian takes its dimension from --dim and r3_lambda its eigenvalue
    # from --lam, on both commands; the counts are the library's own
    F = GF(3)
    sweep = phi_ansatz_sweep(builtin_algebra("abelian", field=F, dim=2))
    code, out, err = _run(capsys, ["search", "phi", "--p", "3",
                                   "--n", "abelian", "--dim", "2"])
    assert code == 0 and err == ""
    assert "search phi: n=abelian over GF(3)" in out
    assert "  hits: %d" % len(sweep.indices) in out
    sweep = phi_ansatz_sweep(builtin_algebra("r3_lambda", field=F, lam=2))
    code, out, err = _run(capsys, ["search", "phi", "--p", "3",
                                   "--n", "r3_lambda", "--lam", "-1",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["hits"] == len(sweep.indices) > 0
    assert payload["indices"] == list(sweep.indices[:25])

    F = GF(2)
    L = builtin_algebra("r3_lambda", field=F, lam=1)
    spec = SearchSpec(L, L)
    hits = enumerate_products(spec).indices
    orbits = orbit_reduce(spec, hits)
    code, out, err = _run(capsys, ["search", "products", "--p", "2",
                                   "--g", "r3_lambda", "--n", "r3_lambda",
                                   "--lam", "3/5", "--orbits",
                                   "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["hits"] == len(hits) > 0
    assert payload["orbit_count"] == orbits.count
    assert payload["aut_order"] == orbits.aut_order


def test_search_dim_and_lam_missing_or_bad(capsys):
    for argv, message in (
            (["phi", "--p", "3", "--n", "abelian"],
             "abelian needs a dimension"),
            (["phi", "--p", "3", "--n", "r3_lambda"],
             "r3_lambda needs the eigenvalue lam"),
            (["products", "--p", "2", "--g", "r3_lambda",
              "--n", "r3_lambda"], "r3_lambda needs the eigenvalue lam"),
            (["products", "--p", "2", "--g", "r3", "--n", "r3_lambda"],
             "r3_lambda needs the eigenvalue lam"),
            (["phi", "--p", "3", "--n", "r3_lambda", "--lam", "1/3"],
             "denominator of 1/3 vanishes mod 3"),
            (["phi", "--p", "2", "--n", "abelian", "--dim", "4"],
             "sweeps support dimensions 1..3, got 4"),
            # a 3^16 box, past the default guard: the dimension is refused
            # first
            (["phi", "--p", "3", "--n", "abelian", "--dim", "4"],
             "sweeps support dimensions 1..3, got 4"),
            (["products", "--p", "3", "--g", "abelian", "--n", "abelian",
              "--dim", "0"], "sweeps support dimensions 1..3, got 0")):
        code, out, err = _run(capsys, ["search"] + argv)
        assert (code, out, err) == (2, "", "error: %s\n" % message), argv
    for command in (["phi", "--p", "3", "--n", "r3_lambda"],
                    ["products", "--p", "3", "--g", "r3_lambda",
                     "--n", "r3_lambda"]):
        with pytest.raises(SystemExit) as exc:
            main(["search"] + command + ["--lam", "half"])
        assert exc.value.code == 2
        assert "invalid rational value: 'half'" in capsys.readouterr().err


def test_search_probe_frozen(capsys):
    argv = ["search", "probe", "--g-class", "sl2", "--p", "5"]
    code, out, err = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["matching_indices"] == [0, 1565004]
    assert payload["structures"] == 392
    assert payload["banner"] == BANNER % 5
    code, out, err = _run(capsys, argv)
    assert "NOTE: %s" % (BANNER % 5) in out


def test_search_probe_parameter_errors(capsys):
    code, out, err = _run(capsys, ["search", "probe", "--g-class", "perfect"])
    assert code == 2 and "error:" in err
    code, out, err = _run(capsys, ["search", "probe", "--g-class", "sl2",
                                   "--p", "2"])
    assert code == 2 and "not complete over GF(2)" in err


def test_guard_blocks_oversized_sweeps(capsys, monkeypatch):
    monkeypatch.setenv("POSTLIE_GUARD", "100")
    code, out, err = _run(capsys, ["search", "products", "--p", "3",
                                   "--g", "abelian", "--n", "abelian",
                                   "--dim", "2"])
    assert code == 2
    assert "error:" in err


def test_guard_counts_the_product_solutions(capsys, monkeypatch):
    """The product guard counts the solutions of the sweep's linear
    system, the candidates it masks, and `candidates:` stays the box:
    n3/n3 over GF(3) leaves 3^9 of 3^18 and runs under the default
    guard, abelian/abelian in dimension 3 leaves all 3^18 and is refused
    before any sweep starts."""
    monkeypatch.delenv(GUARD_ENV, raising=False)
    code, out, err = _run(capsys, ["search", "products", "--g", "n3",
                                   "--n", "n3", "--p", "3", "--orbits"])
    assert (code, err) == (0, "")
    assert "  candidates: 387420489\n" in out
    assert "  hits: 99\n" in out
    assert "  orbits: 7 under 432 automorphisms" in out

    def no_sweep(*args):
        raise AssertionError("a sweep started past the guard")
    monkeypatch.setattr(fpkernel, "product_sweep", no_sweep)
    code, out, err = _run(capsys, ["search", "products", "--g", "abelian",
                                   "--n", "abelian", "--dim", "3",
                                   "--p", "3"])
    assert (code, out) == (2, "")
    assert err == ("error: sweep size 387420489 exceeds the guard 10000000; "
                   "raise the POSTLIE_GUARD environment variable to allow "
                   "it\n")


def test_guard_counts_the_automorphism_candidates(capsys, monkeypatch):
    """The automorphism guard counts the candidates its sweep tests: on
    sl2 over GF(7) one per prefix, 7^6 of the 7^9 box, so `--orbits`
    runs under the default guard."""
    monkeypatch.delenv(GUARD_ENV, raising=False)
    code, out, err = _run(capsys, ["search", "products", "--g", "sl2",
                                   "--n", "sl2", "--p", "7", "--orbits"])
    assert (code, err) == (0, "")
    assert "  orbits: 1 under 336 automorphisms (sizes 1)\n" in out


def test_guard_counts_the_phi_candidates(capsys, monkeypatch):
    """Past the box, the phi guard counts the candidates the defect solve
    builds: on sl2 over GF(7), 187,964 of the 7^9 box.  So the sweep runs
    under a guard of 200,000, and `candidates:` stays the box; under
    150,000 it is refused with that count; under 100,000 it is refused
    on the 7^6 prefixes alone, before the solve runs."""
    command = ["search", "phi", "--n", "sl2", "--p", "7"]
    monkeypatch.setenv(GUARD_ENV, "200000")
    code, out, err = _run(capsys, command)
    assert (code, err) == (0, "")
    assert "  candidates: 40353607\n" in out
    assert "  hits: 1066\n" in out
    monkeypatch.setenv(GUARD_ENV, "150000")

    def no_sweep(*args):
        raise AssertionError("a sweep started past the guard")
    monkeypatch.setattr(fpkernel, "phi_sweep", no_sweep)
    code, out, err = _run(capsys, command)
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep size 187964 exceeds the guard "
                          "150000;")

    def no_count(*args):
        raise AssertionError("the solve ran past the prefix guard")
    monkeypatch.setattr(fpkernel, "phi_candidate_count", no_count)
    monkeypatch.setenv(GUARD_ENV, "100000")
    code, out, err = _run(capsys, command)
    assert (code, out) == (2, "")
    assert err.startswith("error: sweep size 117649 exceeds the guard "
                          "100000;")


def test_probe_runs_under_the_default_guard(capsys, monkeypatch):
    monkeypatch.delenv(GUARD_ENV, raising=False)
    code, out, err = _run(capsys, ["search", "probe", "--g-class",
                                   "solvable", "--p", "7"])
    assert (code, err) == (0, "")
    assert "  matching the requested class: 1064\n" in out


def test_cli_bytes_tool_agrees_with_itself():
    """Two runs of tools/cli_bytes.py on this tree print the same
    fingerprints, the temporary directory named in a message included."""
    tool = runpy.run_path(str(TOOLS / "cli_bytes.py"))
    argvs = [["catalog", "export", "V5"], ["check", "<tmp>/missing.json"]]
    first, second = (tool["fingerprints"](TOOLS.parent, argvs)
                     for _ in range(2))
    assert [row[:2] for row in first] == [("catalog export V5", 0),
                                          ("check <tmp>/missing.json", 2)]
    assert tool["differences"](first, second) == []
    changed = [first[0], first[1][:3] + ("0" * 64,)]
    assert tool["differences"](first, changed) == [
        ("check <tmp>/missing.json", first[1], changed[1])]


def test_embed_and_audit(capsys, v5_doc):
    code, out, err = _run(capsys, ["embed", str(v5_doc)])
    assert code == 0
    assert "result: PASS" in out

    code, out, err = _run(capsys, ["audit", str(v5_doc), "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert payload["identities"]["passed"] is True
    statuses = {f["name"]: f["status"] for f in payload["theorems"]["findings"]}
    assert "VIOLATION" not in statuses.values()

    code, out, err = _run(capsys, ["audit", str(v5_doc)])
    assert "result: PASS" in out


def test_usage_errors(capsys):
    for argv in ([], ["frobnicate"], ["catalog"], ["search"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_main_shares_one_parser_without_leaking_state(capsys, monkeypatch,
                                                     v5_doc):
    """Repeated calls of main in one process print what a fresh parser
    prints, and leave no option value behind for the next call."""
    seeds = []
    sampled = cli.sampled_left_mult_nilpotency

    def recording(pair, seed):
        seeds.append(seed)
        return sampled(pair, seed=seed)

    monkeypatch.setattr(cli, "sampled_left_mult_nilpotency", recording)

    def fresh(argv):
        try:
            args = build_parser().parse_args(argv)
            code = args.func(args)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def shared(argv):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    doc = str(v5_doc)
    calls = (["analyze", doc, "--seed", "3"], ["analyze", doc],
             ["analyze", doc, "--format", "json"], ["analyze"],
             ["analyze", doc])
    outputs = [shared(argv) for argv in calls]
    assert [code for code, _, _ in outputs] == [0, 0, 0, 2, 0]
    assert seeds == [3, 0, 0, 0]
    assert outputs[1] == outputs[4]
    assert json.loads(outputs[2][1])["command"] == "analyze"
    assert "usage: postlie analyze" in outputs[3][2]
    for argv, output in zip(calls, outputs):
        assert output == fresh(argv)


def test_failure_reports_are_frozen(capsys, tmp_path, monkeypatch):
    """`check` and `audit`, text and json, on documents that break one
    pair identity each or the Jacobi identity of g or of n, over Q and
    GF(5).  The expected bytes were recorded before the exact scans moved
    to raw values (tools/gen_golden_failure_reports.py), so a change in
    how a witness or a discrepancy is reduced or printed shows here."""
    golden = json.loads((GOLDEN / "failure_reports.json").read_text())
    monkeypatch.chdir(tmp_path)
    for name, doc in golden["documents"].items():
        (tmp_path / name).write_text(json.dumps(doc))
    failed = set()
    for run in golden["runs"]:
        code, out, err = _run(capsys, [run["command"], run["file"],
                                       "--format", run["format"]])
        assert (code, out, err) == (run["code"], run["out"], run["err"]), (
            run["file"], run["command"], run["format"])
        if run["command"] == "check" and run["format"] == "text":
            failed |= {line.split(":")[0].strip() for line in out.splitlines()
                       if "FAIL at" in line}
    # every broken identity is among the recorded failures
    assert failed >= {"skew-part", "module-action", "derivation-action",
                      "g.jacobi", "n.jacobi"}
    assert len(golden["runs"]) == 40


def test_failure_report_tool_regenerates_byte_for_byte(capsys):
    """The generator, run in process, still writes the committed file."""
    runpy.run_path(str(TOOLS / "gen_golden_failure_reports.py"),
                   run_name="__main__")
    assert capsys.readouterr().out == \
        (GOLDEN / "failure_reports.json").read_text()


@pytest.mark.parametrize("command", [
    ["catalog", "list"],
    ["search", "probe", "--g-class", "solvable", "--p", "5"]])
def test_a_closed_stdout_exits_141_without_a_traceback(command):
    """stdout is a pipe whose read end is closed before the spawn, so the
    first write fails whatever the buffering: the process exits as
    SIGPIPE would, and says nothing on stderr."""
    package_root = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [package_root] + [p for p in [env.get("PYTHONPATH")] if p])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "postlie"] + command,
                              stdout=write_end, stderr=subprocess.PIPE,
                              env=env, timeout=300, check=False)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, b"")
