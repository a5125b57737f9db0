"""Shared fixtures plus the acceptance summary table.

Any test named test_criterion_NN_* feeds the per-criterion summary that
is printed after the run: one line per criterion, PASS only when every
contributing test passed.
"""

import re
from unittest import mock

import pytest

from postlie.catalog import all_entries
from postlie.fields import Mod

CRITERIA = {
    1: "catalog tables reproduced entrywise over Q",
    2: "derived identity audit on every catalog structure",
    3: "worked families validate and classify as expected",
    4: "scalar products pass on n3, fail on sl2 with witness",
    5: "derivation algebras: dimensions, span, completeness",
    6: "every structure embeds in n semidirect Der(n)",
    7: "graph subalgebra inverts the embedding",
    8: "two-step deformation yields exact pre-Lie products",
    9: "GF(3) enumeration matches the brute-force oracle",
    10: "phi sweep over sl2(F5): perfect hits are 0 and -id",
    11: "completeness flags across the catalog",
    12: "theorem audit consistent on every catalog structure",
}

_RANK = {"passed": 0, "skipped": 1, "failed": 2, "error": 2}
_results = {}


def pytest_runtest_logreport(report):
    match = re.search(r"test_criterion_(\d{2})", report.nodeid)
    if not match:
        return
    if report.when == "call" or (report.when == "setup"
                                 and report.outcome != "passed"):
        num = int(match.group(1))
        outcome = report.outcome
        prev = _results.get(num)
        if prev is None or _RANK.get(outcome, 2) > _RANK.get(prev, 0):
            _results[num] = outcome


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        outcome = _results.get(num)
        status = {None: "NOT RUN", "passed": "PASS",
                  "skipped": "SKIP"}.get(outcome, "FAIL")
        label = CRITERIA[num]
        dots = "." * max(2, 56 - len(label))
        terminalreporter.write_line(
            "criterion %02d %s %s %s" % (num, label, dots, status))


@pytest.fixture(scope="session")
def catalog_samples():
    """Every catalog entry built at every listed sample point, over Q."""
    out = []
    for entry in all_entries():
        for sample in entry.samples:
            out.append((entry, sample, entry.build_sample(sample)))
    return out


@pytest.fixture
def mods_built():
    """`mods_built(run)`: the result of `run()` and the number of
    `fields.Mod` scalars it constructed, counted on `Mod.__init__`."""
    def count(run):
        built = []
        init = Mod.__init__

        def counted(self, a, modulus):
            built.append(a)
            init(self, a, modulus)

        with mock.patch.object(Mod, "__init__", counted):
            result = run()
        return result, len(built)
    return count
