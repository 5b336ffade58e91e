"""Canonical JSON formats for programs and polynomials.

Both formats carry their field configuration inline.  Saving is canonical:
object keys are sorted, levels keep their structural order with node names
sorted inside each level, edges sort by (source, target, label), polynomial
terms sort by graded order.  Loading a canonical file and saving it again
reproduces the bytes.

Program files:

    {"field": {"kind": "rational"},
     "num_vars": 2,
     "order": [1, 2],
     "levels": [["s"], ["a", "b"], ["t"]],
     "edges": [{"from": "s", "to": "a", "label": {"var": 1}},
               {"from": "a", "to": "t", "label": {"const": "3"}}]}

Polynomial files:

    {"field": {"kind": "rational"},
     "terms": [{"coeff": "1", "exps": {"1": 1, "2": 1}}]}

Exponent keys are canonical decimal strings from "1" for program variables
and seed names (like "z1") otherwise.  Elements serialize per field:
rationals as "p/q" strings in lowest terms (bare integers when q = 1),
prime-field residues as integers, extension elements as coefficient lists,
constant term first.  Every number a file gives is read through
fields._json_int, so a float or a boolean is refused wherever an integer
belongs, and rationals through RationalField.element_from_json, which
refuses floats.
"""

from __future__ import annotations

import json
from typing import Any

from .abp import Abp, ConstLabel, Edge, Permutation, VarLabel
from .errors import FormatError, StructureError
from .fields import FieldConfig, _json_int, make_field
from .poly import SparsePoly, mono_sort_key, var_sort_key


def _canonical_bytes(data: Any) -> str:
    return json.dumps(data, sort_keys=True, indent=1) + "\n"


def _parse(text: str) -> Any:
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of over 4300 digits
        raise FormatError(f"not JSON: {exc}") from exc


# -- programs ---------------------------------------------------------------


def abp_to_json(a: Abp) -> dict:
    field = a.field
    edges = []
    for e in a.edges:
        if isinstance(e.label, VarLabel):
            label: dict = {"var": e.label.index}
        else:
            label = {"const": field.element_to_json(e.label.value)}
        edges.append({"from": e.src, "to": e.dst, "label": label})
    edges.sort(key=lambda d: (d["from"], d["to"], json.dumps(d["label"], sort_keys=True)))
    data = {
        "field": field.config.to_json(),
        "num_vars": a.num_vars,
        "levels": [sorted(lvl) for lvl in a.levels],
        "edges": edges,
    }
    if a.order is not None:
        data["order"] = list(a.order.image)
    return data


def abp_from_json(data: Any) -> Abp:
    if not isinstance(data, dict):
        raise FormatError("program file must be a JSON object")
    for key in ("field", "num_vars", "levels", "edges"):
        if key not in data:
            raise FormatError(f"program file lacks {key!r}")
    field = make_field(FieldConfig.from_json(data["field"]))
    num_vars = _json_int(data["num_vars"], "num_vars", 0)
    levels = data["levels"]
    if not isinstance(levels, list) or not all(
        isinstance(lvl, list) and all(isinstance(v, str) for v in lvl) for lvl in levels
    ):
        raise FormatError("levels must be lists of node name strings")
    if not isinstance(data["edges"], list):
        raise FormatError("edges must be a list")
    edges = []
    for item in data["edges"]:
        try:
            src, dst, label = item["from"], item["to"], item["label"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad edge entry {item!r}") from exc
        if not isinstance(src, str) or not isinstance(dst, str):
            raise FormatError(f"edge endpoints must be node name strings: {item!r}")
        if not isinstance(label, dict):
            raise FormatError(f"edge label must be an object: {label!r}")
        if "var" in label:
            idx = _json_int(label["var"], "variable index", 1, num_vars + 1)
            edges.append(Edge(src, dst, VarLabel(idx)))
        elif "const" in label:
            edges.append(Edge(src, dst, ConstLabel(field.element_from_json(label["const"]))))
        else:
            raise FormatError(f"edge label needs var or const: {label!r}")
    order = None
    if data.get("order") is not None:
        if not isinstance(data["order"], list):
            raise FormatError(f"bad order: {data['order']!r} is not a list")
        try:
            order = Permutation([_json_int(i, "order entry") for i in data["order"]])
        except StructureError as exc:
            raise FormatError(f"bad order: {exc}") from exc
    return Abp(
        field,
        num_vars,
        tuple(tuple(lvl) for lvl in levels),
        tuple(edges),
        order,
    )


def abp_dumps(a: Abp) -> str:
    return _canonical_bytes(abp_to_json(a))


def abp_loads(text: str) -> Abp:
    return abp_from_json(_parse(text))


# -- polynomials --------------------------------------------------------------


def _var_to_key(v) -> str:
    return str(v)


def _key_to_var(s: str):
    """A decimal key names program variable x_s, any other key a seed name;
    program variables are x_1, x_2, ... in canonical decimal, so "0" and
    "01" are refused."""
    if not (s.isascii() and s.isdigit()):
        return s
    if s[0] == "0":
        raise FormatError(f"bad variable key {s!r}: want an index >= 1, no leading zeros")
    if len(s) > 4300:  # past int()'s conversion limit
        raise FormatError(f"bad variable key of {len(s)} digits")
    return int(s)


def poly_to_json(p: SparsePoly) -> dict:
    field = p.field
    terms = []
    for mono, coeff in sorted(p.terms.items(), key=lambda it: mono_sort_key(it[0])):
        exps = {_var_to_key(v): e for v, e in mono}
        terms.append({"coeff": field.element_to_json(coeff), "exps": exps})
    return {"field": field.config.to_json(), "terms": terms}


def poly_from_json(data: Any) -> SparsePoly:
    if not isinstance(data, dict) or "field" not in data or not isinstance(data.get("terms"), list):
        raise FormatError("polynomial file needs a field and a list of terms")
    field = make_field(FieldConfig.from_json(data["field"]))
    pairs = []
    for item in data["terms"]:
        try:
            coeff = field.element_from_json(item["coeff"])
            exps = item["exps"]
        except (TypeError, KeyError) as exc:
            raise FormatError(f"bad term {item!r}") from exc
        if not isinstance(exps, dict):
            raise FormatError(f"term exponents must be an object: {exps!r}")
        mono_items = []
        for key, e in exps.items():
            if not key:
                raise FormatError("empty variable name in exponents")
            mono_items.append((_key_to_var(key), _json_int(e, f"{key!r} exponent", 1)))
        pairs.append((tuple(sorted(mono_items, key=lambda it: var_sort_key(it[0]))), coeff))
    return SparsePoly.from_pairs(field, pairs)


def poly_dumps(p: SparsePoly) -> str:
    return _canonical_bytes(poly_to_json(p))


def poly_loads(text: str) -> SparsePoly:
    return poly_from_json(_parse(text))


def sniff_load(text: str):
    """Load a program or a polynomial, whichever the file contains."""
    data = _parse(text)
    if isinstance(data, dict) and "levels" in data:
        return abp_from_json(data)
    if isinstance(data, dict) and "terms" in data:
        return poly_from_json(data)
    raise FormatError("file is neither a program nor a polynomial")
