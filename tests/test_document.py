"""JSON document parsing, canonical serialization, located errors."""

import json
from fractions import Fraction

import pytest

from postlie.catalog import get_entry
from postlie.document import (dumps_pair, loads_pair, pair_from_document,
                              pair_to_document, read_pair, write_pair)
from postlie.errors import DocumentError, StructureError
from postlie.fields import GF, QQ

MINIMAL = {
    "field": "Q",
    "dim": 2,
    "g": [{"i": 1, "j": 2, "coeffs": {"1": "1"}}],
    "n": [],
    "product": [{"i": 2, "j": 1, "coeffs": {"1": -1}}],
}


def test_minimal_document_loads():
    pair = pair_from_document(MINIMAL)
    assert pair.dim == 2 and pair.field == QQ
    assert pair.g.bracket_basis(0, 1) == (1, 0)
    assert pair.product.product_basis(1, 0) == (-1, 0)
    # loading does not validate, but this table happens to be a structure
    pair.validate()


def test_loads_rejects_bad_json():
    with pytest.raises(DocumentError) as err:
        loads_pair("{not json")
    assert err.value.where == "$"


def test_round_trip_through_text(catalog_samples):
    for entry, sample, pair in catalog_samples:
        text = dumps_pair(pair)
        back = loads_pair(text).validate()
        assert back.g == pair.g and back.n == pair.n
        assert back.product == pair.product
        assert back.name == pair.name
        # canonical form: a second dump is byte-identical
        assert dumps_pair(back) == text


def test_round_trip_over_prime_field():
    pair = get_entry("V9").build_sample({"alpha": 2}, field=GF(5))
    back = loads_pair(dumps_pair(pair))
    assert back.field == GF(5)
    assert back.product == pair.product


def test_serialization_drops_zero_entries():
    doc = pair_to_document(get_entry("V1").build_sample({}))
    assert doc["g"] == [] and doc["n"] == [] and doc["product"] == []
    v5 = pair_to_document(get_entry("V5").build_sample({}))
    assert v5["product"] == [{"i": 2, "j": 2, "coeffs": {"1": "1"}}]
    for entry in v5["product"]:
        assert "0" not in entry["coeffs"].values()


def test_file_round_trip(tmp_path):
    pair = get_entry("heis_commutative").build_sample(
        {"alpha": 1, "beta": 2, "gamma": 3})
    path = tmp_path / "pair.json"
    write_pair(pair, path)
    back = read_pair(path).validate()
    assert back.product == pair.product
    assert json.loads(path.read_text())["dim"] == 3


@pytest.mark.parametrize("mutate,where", [
    (lambda d: d.update(field="R"), "field"),
    (lambda d: d.update(dim=0), "dim"),
    (lambda d: d.update(dim=17), "dim"),
    (lambda d: d.update(dim=True), "dim"),
    (lambda d: d.update(name=7), "name"),
    (lambda d: d.update(basis=["x", "x"]), "basis"),
    (lambda d: d.update(basis=["x"]), "basis"),
    (lambda d: d.update(extra=1), "$"),
    (lambda d: d.pop("dim"), "$"),
    (lambda d: d.update(g={"1,2": {}}), "g"),
    (lambda d: d.update(g=[{"i": 0, "j": 2, "coeffs": {}}]), "g[0].i"),
    (lambda d: d.update(g=[{"i": 2, "j": 1, "coeffs": {}}]), "g[0]"),
    (lambda d: d.update(g=[{"i": 1, "j": 2}, {"i": 1, "j": 2}]), "g[1]"),
    (lambda d: d.update(g=[{"i": 1, "j": 2, "k": 3}]), "g[0]"),
    (lambda d: d.update(product=[{"i": 1, "j": 1,
                                  "coeffs": {"3": 1}}]),
     "product[0].coeffs['3']"),
    (lambda d: d.update(product=[{"i": 1, "j": 1,
                                  "coeffs": {"1": True}}]),
     "product[0].coeffs['1']"),
    (lambda d: d.update(product=[{"i": 1, "j": 1,
                                  "coeffs": {"1": "x"}}]),
     "product[0].coeffs['1']"),
])
def test_errors_carry_the_offending_path(mutate, where):
    doc = json.loads(json.dumps(MINIMAL))
    mutate(doc)
    with pytest.raises(DocumentError) as err:
        pair_from_document(doc)
    assert err.value.where == where
    assert str(err.value).startswith(where + ":")


@pytest.mark.parametrize("field,message", [
    ("Fp:0_5", "malformed prime in 'Fp:0_5'"),
    ("Fp:05", "malformed prime in 'Fp:05'"),
    ("Fp:+5", "malformed prime in 'Fp:+5'"),
    ("Fp: 5", "malformed prime in 'Fp: 5'"),
    ("Fp:5 ", "malformed prime in 'Fp:5 '"),
    ("Fp:abc", "malformed prime in 'Fp:abc'"),
    ("Fp:6", "modulus must be a prime below 2**16, got 6"),
    ("q", "unknown field 'q'; use \"Q\" or \"Fp:<prime>\""),
])
def test_field_is_named_as_the_field_writes_its_name(field, message):
    # any other spelling of Fp:5 would not read back byte-identical
    doc = dict(MINIMAL, field=field)
    with pytest.raises(DocumentError) as err:
        pair_from_document(doc)
    assert str(err.value) == "field: " + message


def test_prime_field_coefficient_guard():
    doc = {"field": "Fp:5", "dim": 2, "g": [], "n": [],
           "product": [{"i": 1, "j": 1, "coeffs": {"1": "1/5"}}]}
    with pytest.raises(DocumentError) as err:
        pair_from_document(doc)
    assert err.value.where == "product[0].coeffs['1']"


def test_loaded_pair_fails_validation_honestly():
    # parses fine, but the product breaks left-commutativity over abelian
    doc = {"field": "Q", "dim": 2, "g": [], "n": [],
           "product": [{"i": 1, "j": 1, "coeffs": {"2": 1}},
                       {"i": 2, "j": 2, "coeffs": {"1": 1}}]}
    pair = pair_from_document(doc)
    with pytest.raises(StructureError):
        pair.validate()


def test_fractions_survive_the_trip():
    pair = get_entry("lambda_n3").build_sample({"lam": Fraction(1, 3)})
    text = dumps_pair(pair)
    assert '"1/3"' in text
    assert loads_pair(text).product.product_basis(0, 1) == \
        (0, 0, Fraction(1, 3))
