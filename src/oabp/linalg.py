"""Exact Gaussian elimination over any Field: one sparse echelon.

``SpanBuilder`` is the package's only elimination.  Vectors are sparse
dicts (key -> nonzero field element), and every kept row is stored under
its pivot, the smallest key of the row in the keys' own order (so the keys
given to one builder must be mutually comparable).  To reduce a vector,
take the smallest key of its residual; when a kept row has that pivot,
subtract the multiple of the row that clears the key, else stop.  A kept
row has no key below its pivot, so each step clears the residual's
smallest key and touches only larger keys: the smallest key strictly
grows, and the loop ends after at most one step per kept row.  A nonzero
residual is kept under its smallest key, which no kept row has as pivot.
The pivot order changes no result: kept rows are independent, so each
combination ``insert`` reports is unique, and the rank is the span's size.

``matrix_rank`` feeds the sparse rows of a matrix through a ``SpanBuilder``.
"""

from __future__ import annotations

from typing import Any, Sequence

from .fields import Field


def matrix_rank(field: Field, rows: Sequence[dict]) -> int:
    """Rank of a matrix given as a list of sparse rows (dicts column ->
    field element); rows are not modified."""
    span = SpanBuilder(field)
    for i, row in enumerate(rows):
        span.insert(row, i)
    return span.rank


class SpanBuilder:
    """Incremental basis of sparse vectors (dicts key -> field element).

    insert() returns None when the vector was independent (and is kept), or
    a dict expressing it as a combination of the previously kept vectors,
    keyed by their insertion tags.
    """

    def __init__(self, field: Field):
        self.field = field
        # echelon basis: pivot key -> (vector, combo over kept tags)
        self.rows: dict[Any, tuple[dict, dict]] = {}

    @property
    def rank(self) -> int:
        return len(self.rows)

    def _reduce(self, vec: dict) -> tuple[dict, dict]:
        f = self.field
        zero = f.zero()
        residual = {k: v for k, v in vec.items() if v != zero}
        combo: dict = {}
        while residual:
            pivot_key = min(residual)
            row = self.rows.get(pivot_key)
            if row is None:
                break
            row_vec, row_combo = row
            c = f.div(residual[pivot_key], row_vec[pivot_key])
            for k, v in row_vec.items():
                nv = f.sub(residual.get(k, zero), f.mul(c, v))
                if nv == zero:
                    residual.pop(k, None)
                else:
                    residual[k] = nv
            for tag, v in row_combo.items():
                nv = f.add(combo.get(tag, zero), f.mul(c, v))
                if nv == zero:
                    combo.pop(tag, None)
                else:
                    combo[tag] = nv
        return residual, combo

    def insert(self, vec: dict, tag: Any) -> dict | None:
        residual, combo = self._reduce(vec)
        if not residual:
            return combo
        f = self.field
        pivot_key = min(residual)
        # combo_new expresses the stored residual over kept tags:
        # residual = vec - sum combo[t] * kept_t
        combo_new = {t: f.neg(c) for t, c in combo.items()}
        combo_new[tag] = f.one()
        self.rows[pivot_key] = (residual, combo_new)
        return None
