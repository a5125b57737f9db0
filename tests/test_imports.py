"""Every imported name is read somewhere in its module.

A plain `ast` scan: a name bound by `import` or `from ... import` must
appear as a `Name` elsewhere in the same file.
`src/postlie/__init__.py` is left out, since it imports only to
re-export.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "postlie", ROOT / "tests", ROOT / "benchmarks",
           ROOT / "tools")
SKIPPED = {ROOT / "src" / "postlie" / "__init__.py"}


def _files():
    return sorted(path for folder in SCANNED for path in folder.glob("*.py")
                  if path not in SKIPPED)


def unused_imports(source):
    """The names that `source` imports and never reads, with their lines."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_finds_an_unused_import():
    assert unused_imports("import os\nfrom math import gcd, lcm\nlcm(1)\n") \
        == [(1, "os"), (2, "gcd")]
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from x import y as z\nz()\n") == []


@pytest.mark.parametrize("path", _files(),
                         ids=lambda path: str(path.relative_to(ROOT)))
def test_no_unused_imports(path):
    unused = unused_imports(path.read_text())
    assert not unused, ", ".join("line %d: %s" % item for item in unused)
