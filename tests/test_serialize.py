"""Canonical JSON round trips for program and polynomial files."""

import json
from fractions import Fraction

import pytest

from oabp.abp import Abp, ConstLabel, Edge, Permutation, VarLabel, expand, validate
from oabp.errors import FormatError
from oabp.fields import extension_field, prime_field, rationals
from oabp.poly import SparsePoly
from oabp.serialize import (
    abp_dumps,
    abp_from_json,
    abp_loads,
    poly_dumps,
    poly_from_json,
    poly_loads,
    sniff_load,
)

Q = rationals()


def small_program(edge_order=None):
    edges = [
        Edge("s", "a", VarLabel(1)),
        Edge("s", "b", ConstLabel(Fraction(3))),
        Edge("a", "t", VarLabel(2)),
        Edge("b", "t", VarLabel(2)),
    ]
    if edge_order:
        edges = [edges[i] for i in edge_order]
    return Abp(
        Q,
        2,
        (("s",), ("a", "b"), ("t",)),
        tuple(edges),
        Permutation.identity(2),
    )


def test_fixture_files_round_trip_byte_identical(fixtures_dir):
    paths = [
        p
        for p in sorted(fixtures_dir.glob("*.abp.json"))
        + sorted(fixtures_dir.glob("*.poly.json"))
        if not p.name.startswith("bad_")
    ]
    assert len(paths) >= 8
    for path in paths:
        text = path.read_text()
        obj = sniff_load(text)
        dumped = abp_dumps(obj) if isinstance(obj, Abp) else poly_dumps(obj)
        assert dumped == text, path.name


def test_program_round_trip_preserves_semantics():
    a = small_program()
    b = abp_loads(abp_dumps(a))
    # edge tuples come back in canonical order, so compare structure and
    # meaning rather than raw dataclass equality
    assert abp_dumps(b) == abp_dumps(a)
    assert set(b.edges) == set(a.edges)
    assert expand(b) == expand(a)
    assert b.field == Q
    assert b.order == Permutation.identity(2)


def test_edge_order_is_canonicalized():
    assert abp_dumps(small_program()) == abp_dumps(small_program([3, 1, 0, 2]))


def test_level_nodes_are_sorted_in_files():
    shuffled = Abp(
        Q,
        1,
        (("s",), ("b", "a"), ("t",)),
        (
            Edge("s", "a", VarLabel(1)),
            Edge("s", "b", VarLabel(1)),
            Edge("a", "t", ConstLabel(Fraction(1))),
            Edge("b", "t", ConstLabel(Fraction(2))),
        ),
        None,
    )
    data = json.loads(abp_dumps(shuffled))
    assert data["levels"][1] == ["a", "b"]
    assert "order" not in data
    again = abp_loads(abp_dumps(shuffled))
    assert again.order is None
    assert abp_dumps(again) == abp_dumps(shuffled)


def test_unknown_edge_node_loads_but_fails_validation():
    data = json.loads(abp_dumps(small_program()))
    data["edges"][0]["from"] = "ghost"
    a = abp_from_json(data)
    assert validate(a) != []


def test_bad_variable_index_fixture(fixtures_dir):
    text = (fixtures_dir / "bad_var0.abp.json").read_text()
    with pytest.raises(FormatError) as info:
        abp_loads(text)
    assert "variable index" in str(info.value)


def test_program_schema_errors():
    good = json.loads(abp_dumps(small_program()))
    for key in ("field", "num_vars", "levels", "edges"):
        broken = dict(good)
        del broken[key]
        with pytest.raises(FormatError):
            abp_from_json(broken)
    with pytest.raises(FormatError):
        abp_from_json("not a dict")
    broken = dict(good)
    broken["levels"] = [["s"], "ab"]
    with pytest.raises(FormatError):
        abp_from_json(broken)
    broken = dict(good)
    broken["edges"] = [{"from": "s", "to": "t", "label": {"neither": 1}}]
    with pytest.raises(FormatError):
        abp_from_json(broken)
    broken = dict(good)
    broken["order"] = [2, 2]
    with pytest.raises(FormatError):
        abp_from_json(broken)
    with pytest.raises(FormatError):
        abp_loads("{ not json")


def rational_poly():
    return SparsePoly(
        Q,
        {
            (): Fraction(3, 2),
            ((1, 1), (2, 1)): Fraction(-2),
            (("z1", 2),): Fraction(1, 7),
        },
    )


def test_poly_round_trip_three_field_kinds():
    cases = [rational_poly()]
    f7 = prime_field(7)
    cases.append(SparsePoly(f7, {((1, 1),): 5, ((2, 3),): 6}))
    f4 = extension_field(2, 2)
    gen = f4.element_at(2)
    cases.append(SparsePoly(f4, {((1, 1),): gen, (): f4.one()}))
    for p in cases:
        assert poly_loads(poly_dumps(p)) == p


def test_poly_element_encodings():
    data = poly_dumps(rational_poly())
    assert '"3/2"' in data and '"-2"' in data and '"1/7"' in data
    f4 = extension_field(2, 2)
    ext = json.loads(poly_dumps(SparsePoly(f4, {((1, 1),): f4.element_at(2)})))
    assert ext["terms"][0]["coeff"] == [0, 1]
    prime = json.loads(poly_dumps(SparsePoly(prime_field(7), {((1, 1),): 5})))
    assert prime["terms"][0]["coeff"] == 5


def test_poly_exponent_validation():
    base = {"field": {"kind": "rational"}, "terms": [{"coeff": "1", "exps": {"1": 0}}]}
    with pytest.raises(FormatError):
        poly_from_json(base)
    base["terms"] = [{"coeff": "1", "exps": {"1": -2}}]
    with pytest.raises(FormatError):
        poly_from_json(base)
    # "01" is not a second name for x_1: keys are canonical decimals
    base["terms"] = [{"coeff": "1", "exps": {"1": 1, "01": 1}}]
    with pytest.raises(FormatError) as info:
        poly_from_json(base)
    assert "bad variable key '01'" in str(info.value)
    # a non-ASCII digit is no decimal key: it names a variable, as "z1" does
    base["terms"] = [{"coeff": "1", "exps": {"\u00b2": 1}}]
    assert poly_from_json(base).variables() == {"\u00b2"}


def test_poly_duplicate_monomials_accumulate():
    data = {
        "field": {"kind": "rational"},
        "terms": [
            {"coeff": "2", "exps": {"1": 1}},
            {"coeff": "3", "exps": {"1": 1}},
        ],
    }
    assert poly_from_json(data) == SparsePoly(Q, {((1, 1),): Fraction(5)})
    data["terms"][1]["coeff"] = "-2"
    assert poly_from_json(data).is_zero


def test_poly_schema_errors():
    with pytest.raises(FormatError):
        poly_from_json([1, 2])
    with pytest.raises(FormatError):
        poly_from_json({"terms": []})
    with pytest.raises(FormatError):
        poly_from_json({"field": {"kind": "rational"}, "terms": [{"exps": {}}]})
    with pytest.raises(FormatError):
        poly_loads("][")


def test_sniff_load_dispatch():
    a = small_program()
    assert abp_dumps(sniff_load(abp_dumps(a))) == abp_dumps(a)
    p = rational_poly()
    assert sniff_load(poly_dumps(p)) == p
    with pytest.raises(FormatError):
        sniff_load('{"foo": 1}')
    with pytest.raises(FormatError):
        sniff_load("[1, 2]")
