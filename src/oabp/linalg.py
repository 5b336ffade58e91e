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

Over Q the same elimination runs fraction-free, on ints (after Bareiss
1968).  An inserted vector is cleared of its denominators, and a step with
pivot entries x of the residual and y of the row, a = y / g and b = x / g
for g = gcd(x, y), sets residual <- a * residual - b * row, which clears the
pivot key exactly as the rational step does.  The residual is then divided
by the gcd of its entries.  Alongside it the builder carries ints d > 0 and
lam and a combination m over kept tags with

    d * residual = lam * vec - sum_t m[t] * kept_t,

kept_t the vectors as inserted, and a kept row (R, w, e) holds
e * R = sum_t w[t] * kept_t.  Proof sketch: by induction every int residual
and row is a nonzero rational multiple of the one the rational elimination
holds at the same point, since a * (s * r) - b * (s' * row) = a * s *
(r - (x / y) * row) when x = s * r[p] and y = s' * row[p].  Scaling never
changes a support, so each step picks the same pivot and touches the same
keys, the same vectors are kept under the same pivots, and the rank is the
same.  A residual of zero gives vec = sum_t (m[t] / lam) * kept_t, the
unique combination, which ``insert`` returns as exact Fractions.

``matrix_rank`` feeds the sparse rows of a matrix through a ``SpanBuilder``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Any, Sequence

from .fields import Field, RationalField
from .poly import _cleared


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
        self._ints = isinstance(field, RationalField)
        # echelon basis, pivot key -> row: (vector, combo over kept tags),
        # over Q (int vector, int combo, int denominator e) as above
        self.rows: dict[Any, tuple] = {}

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
        if self._ints:
            return self._insert_ints(vec, tag)
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

    def _insert_ints(self, vec: dict, tag: Any) -> dict | None:
        """insert over Q, fraction-free (module docstring)."""
        gcd = math.gcd
        lam, nums = _cleared(vec.values())
        residual = {k: n for k, n in zip(vec, nums) if n}
        d = 1
        m: dict = {}
        rows = self.rows
        while residual:
            pivot_key = min(residual)
            row = rows.get(pivot_key)
            if row is None:
                break
            row_vec, row_combo, e = row
            x, y = residual[pivot_key], row_vec[pivot_key]
            g = gcd(x, y)
            a, b = y // g, x // g
            if a != 1:
                residual = {k: a * v for k, v in residual.items()}
            for k, v in row_vec.items():
                nv = residual.get(k, 0) - b * v
                if nv:
                    residual[k] = nv
                else:
                    del residual[k]
            # e * d * residual = a * e * lam * vec - sum (a * e * m + b * d * w) * kept
            ae, bd = a * e, b * d
            m = {t: ae * c for t, c in m.items()}
            for t, c in row_combo.items():
                nc = m.get(t, 0) + bd * c
                if nc:
                    m[t] = nc
                else:
                    del m[t]
            lam *= ae
            d *= e
            h = gcd(*residual.values())
            if h > 1:
                residual = {k: v // h for k, v in residual.items()}
                d *= h
            h = gcd(d, lam, *m.values())
            if h > 1:
                d //= h
                lam //= h
                m = {t: c // h for t, c in m.items()}
        if not residual:
            return {t: Fraction(c, lam) for t, c in m.items()}
        m = {t: -c for t, c in m.items()}
        m[tag] = lam
        rows[min(residual)] = (residual, m, d)
        return None
