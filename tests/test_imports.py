"""Every imported name is read somewhere in its module, and every name
the library defines is read somewhere.

A plain `ast` scan: a name bound by `import` or `from ... import` must
appear as a `Name` elsewhere in the same file.
`src/postlie/__init__.py` is left out, since it imports only to
re-export.

A name the library defines at the top of a module (a function, class or
assignment) or as a method of a top-level class must occur as a word
outside its own definition, in any Python file of `src`, `tests`,
`benchmarks`, `tools` or `perfbench`; words in strings count, since
perfbench names the functions it traces in strings.  Dunders are left
out.
"""

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SCANNED = (ROOT / "src" / "postlie", ROOT / "tests", ROOT / "benchmarks",
           ROOT / "tools")
SKIPPED = {ROOT / "src" / "postlie" / "__init__.py"}
READERS = (ROOT / "src", ROOT / "tests", ROOT / "benchmarks", ROOT / "tools",
           ROOT / "perfbench")


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


def definitions(source):
    """(name, first line, last line) of each top-level function, class and
    assignment of `source`, and of each method of its top-level classes;
    dunders are left out."""
    nodes = []
    for node in ast.parse(source).body:
        nodes.append(node)
        if isinstance(node, ast.ClassDef):
            nodes.extend(item for item in node.body
                         if isinstance(item, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
    out = []
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        else:
            continue
        out.extend((name, node.lineno, node.end_lineno) for name in names
                   if not (name.startswith("__") and name.endswith("__")))
    return out


def dead_names(sources, defining):
    """The names defined in the files `defining` (see `definitions`) that
    occur as a word nowhere in `sources`, a {path: text} map, outside
    their own definition: sorted (path, line, name)."""
    seen = {}
    for path, text in sources.items():
        for line, row in enumerate(text.splitlines(), 1):
            for word in set(re.findall(r"\w+", row)):
                seen.setdefault(word, []).append((path, line))
    return sorted((path, first, name) for path in defining
                  for name, first, last in definitions(sources[path])
                  if all(where == path and first <= line <= last
                         for where, line in seen.get(name, ())))


def test_the_scan_finds_a_dead_name():
    lib = ("LIMIT = 3\n\n\ndef used():\n    return LIMIT\n\n\n"
           "def unused():\n    \"\"\"unused is read nowhere.\"\"\"\n"
           "    return used()\n\n\nclass Box:\n    def __len__(self):\n"
           "        return 0\n\n    def spare(self):\n        return 1\n")
    assert dead_names({"lib.py": lib, "test.py": "Box()\n"}, ["lib.py"]) \
        == [("lib.py", 8, "unused"), ("lib.py", 17, "spare")]
    # a word in a string is a read, as in perfbench's traced names
    assert dead_names({"lib.py": lib, "bench.py": "('lib', 'unused')\n",
                       "test.py": "Box().spare()\n"}, ["lib.py"]) == []


def test_every_library_name_is_read_somewhere():
    sources = {path: path.read_text() for folder in READERS
               for path in sorted(folder.rglob("*.py"))}
    library = sorted((ROOT / "src" / "postlie").glob("*.py"))
    dead = dead_names(sources, library)
    assert not dead, ", ".join("%s:%d %s" % (path.relative_to(ROOT), line,
                                            name)
                               for path, line, name in dead)
