"""JSON documents describing a bracket pair and a candidate product.

The document shape is deliberately plain so tables can be written by
hand:

    {
      "field": "Q",                      or "Fp:5"
      "dim": 3,
      "name": "example",                 optional
      "basis": ["e1", "e2", "e3"],       optional, cosmetic
      "g": [ {"i": 1, "j": 2, "coeffs": {"1": "1"}} ],
      "n": [ ... ],
      "product": [ {"i": 2, "j": 2, "coeffs": {"1": "-1/2"}} ]
    }

Indices are 1-based here and only here.  Bracket entries need i < j
(the other half is determined by antisymmetry); product entries may use
any slot.  Coefficients are strings or integers; rationals use "a/b".
Every parse error carries the path of the offending element, e.g.
"product[3].coeffs['2']".  Serialization is canonical: sorted slots,
sorted component keys, coefficients formatted by the field, two-space
indent, so equal pairs serialize to byte-identical documents.
"""

import json

from .errors import DocumentError, UnsupportedFieldError
from .fields import field_from_name
from .lie import LieAlgebra
from .structures import BilinearProduct, PostLiePair

_MAX_DIM = 16


def _parse_field(raw, where):
    if not isinstance(raw, str):
        raise DocumentError("field must be a string", where)
    try:
        return field_from_name(raw)
    except UnsupportedFieldError as exc:
        raise DocumentError(str(exc), where)
    except ValueError:
        if raw.startswith("Fp:"):
            raise DocumentError("malformed prime in %r" % raw, where)
        raise DocumentError("unknown field %r; use \"Q\" or \"Fp:<prime>\""
                            % raw, where)


def _parse_index(raw, dim, where):
    if not isinstance(raw, int) or isinstance(raw, bool):
        raise DocumentError("index must be an integer", where)
    if not 1 <= raw <= dim:
        raise DocumentError("index %d outside 1..%d" % (raw, dim), where)
    return raw - 1


def _parse_coeffs(raw, field, dim, where):
    if not isinstance(raw, dict):
        raise DocumentError("coeffs must be an object", where)
    vec = {}
    for key, val in raw.items():
        spot = "%s[%r]" % (where, key)
        try:
            comp = int(key)
        except (TypeError, ValueError):
            raise DocumentError("component key must be an integer string",
                                spot)
        if not 1 <= comp <= dim:
            raise DocumentError("component %d outside 1..%d" % (comp, dim),
                                spot)
        if isinstance(val, bool) or not isinstance(val, (int, str)):
            raise DocumentError("coefficient must be an integer or string",
                                spot)
        try:
            vec[comp - 1] = field.scalar(val)
        except (ValueError, ZeroDivisionError, UnsupportedFieldError) as exc:
            raise DocumentError("bad coefficient %r: %s" % (val, exc), spot)
    return vec


def _parse_table(raw, field, dim, key, ordered):
    if raw is None:
        return {}
    if not isinstance(raw, list):
        raise DocumentError("%s must be a list of entries" % key, key)
    table = {}
    for pos, item in enumerate(raw):
        where = "%s[%d]" % (key, pos)
        if not isinstance(item, dict):
            raise DocumentError("entry must be an object", where)
        extra = set(item) - {"i", "j", "coeffs"}
        if extra:
            raise DocumentError("unknown keys %s" % sorted(extra), where)
        if "i" not in item or "j" not in item:
            raise DocumentError("entry needs both \"i\" and \"j\"", where)
        i = _parse_index(item["i"], dim, where + ".i")
        j = _parse_index(item["j"], dim, where + ".j")
        if ordered and not i < j:
            raise DocumentError(
                "bracket entries need i < j; the rest follows by "
                "antisymmetry", where)
        if (i, j) in table:
            raise DocumentError("duplicate slot (%d, %d)" % (i + 1, j + 1),
                                where)
        table[(i, j)] = _parse_coeffs(item.get("coeffs", {}), field, dim,
                                      where + ".coeffs")
    return table


def pair_from_document(doc):
    """Build an unvalidated pair from a parsed JSON object.

    Raises DocumentError for structural problems; run validate() or the
    checkers on the result to test the actual identities.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object", "$")
    extra = set(doc) - {"field", "dim", "name", "basis", "g", "n", "product"}
    if extra:
        raise DocumentError("unknown keys %s" % sorted(extra), "$")
    for key in ("field", "dim"):
        if key not in doc:
            raise DocumentError("missing required key %r" % key, "$")
    field = _parse_field(doc["field"], "field")
    dim = doc["dim"]
    if not isinstance(dim, int) or isinstance(dim, bool):
        raise DocumentError("dim must be an integer", "dim")
    if not 1 <= dim <= _MAX_DIM:
        raise DocumentError("dim %r outside 1..%d" % (dim, _MAX_DIM), "dim")
    name = doc.get("name")
    if name is not None and not isinstance(name, str):
        raise DocumentError("name must be a string", "name")
    basis = doc.get("basis")
    if basis is not None:
        if (not isinstance(basis, list) or len(basis) != dim
                or not all(isinstance(b, str) for b in basis)):
            raise DocumentError("basis must be a list of %d strings" % dim,
                                "basis")
        if len(set(basis)) != dim:
            raise DocumentError("basis labels must be distinct", "basis")
    g = LieAlgebra(field, dim, _parse_table(doc.get("g"), field, dim, "g",
                                            ordered=True))
    n = LieAlgebra(field, dim, _parse_table(doc.get("n"), field, dim, "n",
                                            ordered=True))
    product = BilinearProduct(field, dim,
                              _parse_table(doc.get("product"), field, dim,
                                           "product", ordered=False))
    return PostLiePair(g, n, product, name=name)


def loads_pair(text):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("not valid JSON: %s" % exc, "$")
    return pair_from_document(doc)


def read_pair(path):
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    return loads_pair(text)


def _coeffs_out(field, vec):
    out = {}
    for k, c in enumerate(vec):
        if c != 0:
            out[str(k + 1)] = field.format(c)
    return out


def _table_out(field, dim, slots):
    entries = []
    for (i, j), vec in sorted(slots):
        coeffs = _coeffs_out(field, vec)
        if coeffs:
            entries.append({"i": i + 1, "j": j + 1, "coeffs": coeffs})
    return entries


def pair_to_document(pair):
    field = pair.field
    dim = pair.dim
    doc = {
        "field": field.name,
        "dim": dim,
        "basis": ["e%d" % (i + 1) for i in range(dim)],
        "g": _table_out(field, dim, pair.g.brackets.items()),
        "n": _table_out(field, dim, pair.n.brackets.items()),
        "product": _table_out(field, dim, pair.product.table.items()),
    }
    if pair.name is not None:
        doc["name"] = pair.name
    return doc


def dumps_pair(pair):
    """Canonical serialization; byte-stable for equal pairs."""
    return json.dumps(pair_to_document(pair), indent=2, sort_keys=True) + "\n"


def write_pair(pair, path):
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_pair(pair))
