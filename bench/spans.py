"""Spans and field-operation counts recorded from outside the package.

The package modules import functions by name (``from .abp import expand``),
so a wrapper only sees a call when it replaces the attribute the caller
looks up.  ``TRACED`` lists, per layer span, every module attribute or
class method that leads to the function.  ``Tracer.installed()`` swaps in
the wrappers and restores the originals on exit; the untraced passes run
with nothing wrapped.

Spans are kept in memory as tuples and reduced when the pass ends.  A
span's self time is its duration minus the durations of its direct child
spans.
"""

from __future__ import annotations

import contextlib
import sys
from time import perf_counter
from typing import Any, Callable

# span name -> (module, attribute path) pairs that reach the function
TRACED: dict[str, tuple[tuple[str, str], ...]] = {
    "pit.compose_test": (("oabp.pit", "compose_test"),),
    "pit.hitset_test_abp": (("oabp.pit", "hitset_test_abp"),),
    "generator.build_generator": (("oabp.pit", "build_generator"),),
    "generator.eval_generator": (("oabp.pit", "eval_generator"),),
    # abp_oracle imports evaluate from oabp.abp each time it is called
    "abp.evaluate": (("oabp.abp", "evaluate"),),
    "abp.expand": (
        ("oabp.abp", "expand"),
        ("oabp.pit", "expand"),
        ("oabp.families", "expand"),
        ("oabp.transforms", "expand"),
    ),
    "poly.compose": (("oabp.poly", "SparsePoly.compose"),),
    "poly.sorted_terms": (("oabp.poly", "SparsePoly.sorted_terms"),),
    "transforms.obliviate": (("oabp.pit", "obliviate"), ("oabp.transforms", "obliviate")),
    "transforms.derivative_abp": (("oabp.transforms", "derivative_abp"),),
    "transforms.cut_decompose": (("oabp.transforms", "cut_decompose"),),
    "transforms.reduce_independent": (("oabp.transforms", "reduce_independent"),),
    "linalg.matrix_rank": (("oabp.families", "matrix_rank"),),
    "linalg.SpanBuilder.insert": (("oabp.linalg", "SpanBuilder.insert"),),
    "families.deriv_matrix": (("oabp.families", "deriv_matrix"),),
    "families.read_lower_bound": (("oabp.families", "read_lower_bound"),),
    "families.verify_full_rank": (("oabp.families", "verify_full_rank"),),
}


def _attrs(name: str, args: tuple, out: Any) -> dict | None:
    """Work counts a span carries besides its time."""
    if name == "pit.hitset_test_abp":
        return {
            "queries": out.queries,
            "full_grids": out.verdict == "ZERO",
            "lifted": out.note is not None,
        }
    if name in ("poly.compose", "abp.expand"):
        return {"terms_out": out.num_terms}
    if name == "transforms.obliviate":
        return {"edges_out": len(out.edges)}
    if name == "transforms.reduce_independent":
        return {"kept": out.width, "offered": args[0].width}
    if name == "linalg.matrix_rank":
        rows = args[1]
        return {"cells": len(rows) * (len(rows[0]) if rows else 0)}
    return None


def _resolve(module: str, path: str) -> tuple[Any, str]:
    owner = sys.modules[module]
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


@contextlib.contextmanager
def _swapped(replacements: list[tuple[Any, str, Any]]):
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in replacements]
    try:
        for owner, attr, new in replacements:
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, old in saved:
            setattr(owner, attr, old)


class Tracer:
    """In-memory spans: (id, parent id, request, name, start, end, attrs)."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.request = 0
        self._stack: list[int] = [0]  # id 0 is the request itself
        self._next = 1

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            sid = tracer._next
            tracer._next += 1
            parent = tracer._stack[-1]
            tracer._stack.append(sid)
            start = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
            tracer.spans.append(
                (sid, parent, tracer.request, name, start, end, _attrs(name, args, out))
            )
            return out

        return traced

    def installed(self):
        """Context manager: every TRACED function wrapped while it is open."""
        replacements = []
        for name, sites in TRACED.items():
            resolved = [_resolve(m, p) for m, p in sites]
            wrapper = self._wrap(name, resolved[0][0].__dict__[resolved[0][1]])
            replacements += [(owner, attr, wrapper) for owner, attr in resolved]
        return _swapped(replacements)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, self seconds, and summed attrs."""
        child: dict[int, float] = {}
        for _, parent, _, _, start, end, _ in self.spans:
            child[parent] = child.get(parent, 0.0) + (end - start)
        out: dict[str, dict[str, float]] = {
            name: {"calls": 0, "self_s": 0.0} for name in TRACED
        }
        for sid, _, _, name, start, end, attrs in self.spans:
            rec = out[name]
            rec["calls"] += 1
            rec["self_s"] += (end - start) - child.get(sid, 0.0)
            for k, v in (attrs or {}).items():
                rec[k] = rec.get(k, 0) + v
        return out


class FieldOpCounter:
    """Counts add, mul and inv calls on every field class.

    ``Field.sub`` and ``Field.div`` are built from these, so a subtraction
    counts as one add and a division as one inv plus one mul.
    """

    OPS = ("add", "mul", "inv")

    def __init__(self) -> None:
        self.counts = dict.fromkeys(self.OPS, 0)

    def _wrap(self, op: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(self_field, *args):
            counts[op] += 1
            return fn(self_field, *args)

        return counted

    def installed(self):
        fields = sys.modules["oabp.fields"]
        classes = (fields.RationalField, fields.PrimeField, fields.ExtensionField)
        return _swapped(
            [
                (cls, op, self._wrap(op, cls.__dict__[op]))
                for cls in classes
                for op in self.OPS
            ]
        )
