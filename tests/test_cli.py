"""End-to-end command line tests, run in process through main(argv)."""

import json
from pathlib import Path

import pytest

from postlie import cli
from postlie.catalog import all_entries, builtin_algebra
from postlie.cli import build_parser, main
from postlie.document import read_pair
from postlie.fields import GF
from postlie.fpkernel import BACKEND
from postlie.search import (BANNER, SearchSpec, enumerate_products,
                            orbit_reduce, phi_ansatz_sweep)

GOLDEN = Path(__file__).parent / "golden"


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
    expected = sum(max(len(e.samples), 1) for e in all_entries())
    assert len(payload["samples"]) == expected


def test_catalog_verify_deterministic(capsys):
    code, first, _ = _run(capsys, ["catalog", "verify", "V1", "V9"])
    assert code == 0
    code, second, _ = _run(capsys, ["catalog", "verify", "V1", "V9"])
    assert first == second
    assert first.splitlines()[-1].endswith("0 mismatches")


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
    code, out, err = _run(capsys, ["catalog", "export", "V9",
                                   "--param", "alpha=two"])
    assert code == 2 and "error:" in err
    code, out, err = _run(capsys, ["catalog", "export", "V5",
                                   "--field", "Fp:6"])
    assert code == 2 and "error:" in err


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
                                   "--p", "3"])
    assert code == 2 and "error:" in err


def test_guard_blocks_oversized_sweeps(capsys, monkeypatch):
    monkeypatch.setenv("POSTLIE_GUARD", "100")
    code, out, err = _run(capsys, ["search", "products", "--p", "3",
                                   "--g", "abelian", "--n", "abelian",
                                   "--dim", "2"])
    assert code == 2
    assert "error:" in err


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
