"""Structured pass/fail reports for axiom and identity scans.

Every failing item carries a witness: the basis tuple where the identity
first broke, plus the nonzero difference of its two sides.  Indices are
0-based in the API and rendered 1-based (e1, e2, ...) in text and JSON.
"""

from dataclasses import dataclass

from .linalg import reduce_raw


@dataclass(frozen=True)
class CheckItem:
    name: str
    passed: bool
    witness: tuple | None = None
    discrepancy: tuple | None = None

    def describe(self):
        if self.passed:
            return "%s: ok" % self.name
        parts = ["%s: FAIL" % self.name]
        if self.witness is not None:
            parts.append("at (%s)" % ", ".join("e%d" % (i + 1) for i in self.witness))
        if self.discrepancy is not None:
            parts.append("difference (%s)" % ", ".join(str(v) for v in self.discrepancy))
        return " ".join(parts)

    def as_dict(self):
        out = {"name": self.name, "passed": self.passed}
        if self.witness is not None:
            out["witness"] = [i + 1 for i in self.witness]
        if self.discrepancy is not None:
            out["discrepancy"] = [str(v) for v in self.discrepancy]
        return out


@dataclass(frozen=True)
class CheckReport:
    subject: str
    items: tuple

    @property
    def passed(self):
        return all(item.passed for item in self.items)

    def failures(self):
        return tuple(item for item in self.items if not item.passed)

    def item(self, name):
        for it in self.items:
            if it.name == name:
                return it
        raise KeyError(name)

    def prefixed(self, prefix):
        return CheckReport(self.subject, tuple(
            CheckItem("%s%s" % (prefix, it.name), it.passed, it.witness,
                      it.discrepancy) for it in self.items))

    def lines(self):
        out = ["%s: %s" % (self.subject, "PASS" if self.passed else "FAIL")]
        out.extend("  " + item.describe() for item in self.items)
        return out

    def as_dict(self):
        return {
            "subject": self.subject,
            "passed": self.passed,
            "items": [item.as_dict() for item in self.items],
        }


def scan_item(name, field, tuples, delta, scale=1):
    """Evaluate an identity over index tuples; the first nonzero difference
    is the witness.

    `delta(*idx)` returns `scale` times the difference of the two sides at
    one tuple as raw values (see `Field.raw`), unreduced; each coordinate
    is reduced once, when its tuple is decided, and only the witness's
    discrepancy is divided back by `scale`.  Over Q the scans scale their
    tables by a common denominator D (see `linalg.common_denominator`), so
    that an identity of degree k sums ints and passes D**k; over GF(p)
    `scale` is 1.  The scan short-circuits inside one identity, but
    callers always collect every identity, so reports list all broken
    ones.
    """
    for idx in tuples:
        diff = reduce_raw(field, delta(*idx))
        if any(diff):
            return CheckItem(name, False, idx, tuple(
                [field.from_raw(v) / scale for v in diff]))
    return CheckItem(name, True)
