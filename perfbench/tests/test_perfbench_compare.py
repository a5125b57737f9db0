import json

import pytest

import compare

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.1}]}


def result(tmp_path, name, backend, wall):
    path = tmp_path / name
    path.write_text(json.dumps({
        "workload": "w", "env": {"backend": backend, "seed": 1},
        "metrics": {"wall_s": {"value": wall, "unit": "s"}}}))
    return path


def test_summary_takes_medians_and_compare_applies_the_bound(tmp_path):
    base = compare.summarize(
        [result(tmp_path, "a%d" % i, "python", 10.0 + i) for i in range(3)],
        ["wall_s"])
    assert base["w"]["metrics"]["wall_s"]["median"] == 11.0
    slower = compare.summarize([result(tmp_path, "b", "python", 12.5)],
                               ["wall_s"])
    (line,) = compare.compare(base, slower, SPEC)
    assert "WORSE than bound" in line
    close = compare.summarize([result(tmp_path, "c", "python", 11.5)],
                              ["wall_s"])
    assert "within bound" in compare.compare(base, close, SPEC)[0]


def test_summary_reports_the_spread_against_the_bound(tmp_path):
    base = compare.summarize(
        [result(tmp_path, "a%d" % i, "python", 10.0 + i) for i in range(5)],
        ["wall_s"])
    row = base["w"]["metrics"]["wall_s"]
    assert row["spread"] == pytest.approx((row["q3"] - row["q1"]) / 12.0)
    (line,) = compare.report(base, SPEC)
    assert "spread %.3f" % row["spread"] in line and "bound 0.10" in line


def test_results_from_different_backends_are_refused(tmp_path):
    with pytest.raises(compare.BackendMismatch):
        compare.summarize([result(tmp_path, "a", "python", 1.0),
                           result(tmp_path, "b", "compiled", 1.0)],
                          ["wall_s"])
    base = compare.summarize([result(tmp_path, "c", "compiled", 1.0)],
                             ["wall_s"])
    new = compare.summarize([result(tmp_path, "d", "python", 1.0)],
                            ["wall_s"])
    with pytest.raises(compare.BackendMismatch):
        compare.compare(base, new, SPEC)
