"""Sparse multivariate polynomials with exact coefficients.

A polynomial is a map from monomials to nonzero field elements.  Monomials
are tuples of (variable, exponent) pairs, exponents >= 1; the empty tuple is
the constant monomial.  Variables come from two namespaces that never mix in
practice:

* program variables: 1-based ints (x_1 is plain 1)
* generator seed variables: strings like "z3", "u1", "v2"

Invariant: within a monomial the variables strictly increase under
var_sort_key, so each monomial has exactly one spelling and equal monomials
are equal tuples.  var_sort_key is injective for this reason: it ends in the
raw name, so "z" and "z0" are distinct and ordered.  mono_mul relies on the
invariant: it merges its two sorted factors in one linear pass, adding
exponents where a variable occurs in both, and so keeps the invariant.

SparsePoly values are immutable: nothing writes to a polynomial's terms
after it is built.  An operation may therefore return an operand as its
result (scale by one returns the polynomial itself), and scale by a nonzero
field element and neg hand their freshly built dict to the polynomial without
the copy and zero filter of the constructor: a field has no zero divisors, so
those results hold no zero coefficient.  scale by a value that is not a
field element (an int the field's operations reduce, such as 3 over F_3)
keeps the filter.  add and mul can cancel, so they keep a zero filter: add
checks each sum it forms, mul goes through the constructor.
"""

from __future__ import annotations

from functools import cache
from typing import Any, Iterable, Mapping

from .errors import BudgetError, StructureError
from .fields import Field

VarKey = Any  # int | str
Mono = tuple  # tuple[tuple[VarKey, int], ...]

# Terms a single expansion or composition may hold at once before erroring.
DEFAULT_TERM_BUDGET = 10**6

_KIND_RANK = {"z": 0, "u": 1, "v": 2, "y": 3, "w": 4}


@cache
def var_sort_key(v: VarKey) -> tuple:
    """Total order on variables: ints by value, then named seeds by kind/index.

    Injective: the raw name breaks ties between names such as "z" and "z0".
    Memoized; the cache holds one entry per distinct variable name.
    """
    if isinstance(v, int):
        return (0, 0, v)
    head = v.rstrip("0123456789")
    tail = v[len(head):]
    return (1, _KIND_RANK.get(head, 9), int(tail) if tail else 0, head, v)


def mono_mul(m1: Mono, m2: Mono) -> Mono:
    """Product of two monomials: a linear merge of their sorted variables."""
    if not m1:
        return m2
    if not m2:
        return m1
    key = var_sort_key
    out = []
    i = j = 0
    n1, n2 = len(m1), len(m2)
    while i < n1 and j < n2:
        v1, e1 = m1[i]
        v2, e2 = m2[j]
        if v1 == v2:
            out.append((v1, e1 + e2))
            i += 1
            j += 1
        elif key(v1) < key(v2):
            out.append(m1[i])
            i += 1
        else:
            out.append(m2[j])
            j += 1
    return tuple(out) + m1[i:] + m2[j:]


def mono_degree(m: Mono) -> int:
    return sum(e for _, e in m)


def mono_sort_key(m: Mono) -> tuple:
    """Graded order: total degree first, then variable-wise lexicographic."""
    return (mono_degree(m), tuple((var_sort_key(v), e) for v, e in m))


class SparsePoly:
    __slots__ = ("field", "terms")

    def __init__(self, field: Field, terms: Mapping[Mono, Any] | None = None):
        clean: dict = {}
        zero = field.zero()
        if terms:
            for mono, coeff in terms.items():
                if coeff != zero:
                    clean[mono] = coeff
        self.field = field
        self.terms = clean

    @classmethod
    def _from_nonzero(cls, field: Field, terms: dict) -> "SparsePoly":
        """A polynomial that takes terms as its own, without the constructor's
        copy and zero filter: no coefficient may be zero, and the caller
        keeps no other reference to the dict."""
        p = cls.__new__(cls)
        p.field = field
        p.terms = terms
        return p

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls, field: Field) -> "SparsePoly":
        return cls(field)

    @classmethod
    def const(cls, field: Field, value) -> "SparsePoly":
        return cls(field, {(): value})

    @classmethod
    def variable(cls, field: Field, v: VarKey) -> "SparsePoly":
        return cls(field, {((v, 1),): field.one()})

    @classmethod
    def from_pairs(cls, field: Field, pairs: Iterable[tuple[Mono, Any]]) -> "SparsePoly":
        acc: dict = {}
        for mono, coeff in pairs:
            if mono in acc:
                acc[mono] = field.add(acc[mono], coeff)
            else:
                acc[mono] = coeff
        return cls(field, acc)

    # -- predicates and measures --------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    def variables(self) -> set:
        out: set = set()
        for mono in self.terms:
            for v, _ in mono:
                out.add(v)
        return out

    def individual_degrees(self) -> dict:
        out: dict = {}
        for mono in self.terms:
            for v, e in mono:
                if e > out.get(v, 0):
                    out[v] = e
        return out

    def total_degree(self) -> int:
        return max((mono_degree(m) for m in self.terms), default=0)

    def is_multilinear(self) -> bool:
        return all(e == 1 for mono in self.terms for _, e in mono)

    # -- arithmetic ----------------------------------------------------------

    def add(self, other: "SparsePoly") -> "SparsePoly":
        self._check_same_field(other)
        f = self.field
        fadd, zero = f.add, f.zero()
        acc = dict(self.terms)
        get = acc.get
        for mono, coeff in other.terms.items():
            prev = get(mono)
            if prev is None:
                acc[mono] = coeff
            else:
                c = fadd(prev, coeff)
                if c == zero:  # only a sum of two terms can cancel
                    del acc[mono]
                else:
                    acc[mono] = c
        return SparsePoly._from_nonzero(f, acc)

    def neg(self) -> "SparsePoly":
        f = self.field
        neg = f.neg
        return SparsePoly._from_nonzero(f, {m: neg(c) for m, c in self.terms.items()})

    def sub(self, other: "SparsePoly") -> "SparsePoly":
        return self.add(other.neg())

    def scale(self, c) -> "SparsePoly":
        f = self.field
        if c == f.one():
            return self
        if c == f.zero():
            return SparsePoly(f)
        mul = f.mul
        terms = {m: mul(co, c) for m, co in self.terms.items()}
        if f.is_element(c):
            return SparsePoly._from_nonzero(f, terms)
        return SparsePoly(f, terms)  # an unreduced c, such as 3 over F_3, may be zero

    def mul(self, other: "SparsePoly", budget: int | None = None) -> "SparsePoly":
        self._check_same_field(other)
        f = self.field
        if budget is not None and self.num_terms * other.num_terms > budget:
            raise BudgetError(
                f"product of {self.num_terms} x {other.num_terms} terms "
                f"exceeds term budget {budget}"
            )
        fmul, fadd = f.mul, f.add
        acc: dict = {}
        get = acc.get
        right = list(other.terms.items())
        for m1, c1 in self.terms.items():
            for m2, c2 in right:
                m = mono_mul(m1, m2)
                c = fmul(c1, c2)
                prev = get(m)
                acc[m] = c if prev is None else fadd(prev, c)
        return SparsePoly(f, acc)

    def pow_int(self, e: int, budget: int | None = None) -> "SparsePoly":
        if e < 0:
            raise StructureError("negative polynomial power")
        acc = SparsePoly.const(self.field, self.field.one())
        for _ in range(e):
            acc = acc.mul(self, budget=budget)
        return acc

    __add__ = add
    __sub__ = sub
    __neg__ = neg

    def __mul__(self, other):
        if isinstance(other, SparsePoly):
            return self.mul(other)
        return self.scale(other)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePoly)
            and self.field == other.field
            and self.terms == other.terms
        )

    __hash__ = None  # type: ignore[assignment]

    # -- evaluation and calculus ----------------------------------------------

    def evaluate(self, assignment: Mapping[VarKey, Any]):
        """Value at a full assignment; every mentioned variable needs a value."""
        f = self.field
        total = f.zero()
        for mono, coeff in self.terms.items():
            val = coeff
            for v, e in mono:
                if v not in assignment:
                    raise StructureError(f"no value for variable {v!r}")
                val = f.mul(val, f.pow(assignment[v], e))
            total = f.add(total, val)
        return total

    def derivative(self, v: VarKey) -> "SparsePoly":
        f = self.field
        acc: dict = {}
        for mono, coeff in self.terms.items():
            for idx, (w, e) in enumerate(mono):
                if w == v:
                    c = f.mul(coeff, f.from_int(e))
                    if e == 1:
                        m = mono[:idx] + mono[idx + 1:]
                    else:
                        m = mono[:idx] + ((w, e - 1),) + mono[idx + 1:]
                    if m in acc:
                        acc[m] = f.add(acc[m], c)
                    else:
                        acc[m] = c
                    break
        return SparsePoly(f, acc)

    def compose(
        self,
        images: Mapping[VarKey, "SparsePoly"],
        budget: int | None = DEFAULT_TERM_BUDGET,
    ) -> "SparsePoly":
        """Substitute a polynomial for every variable and expand.

        Every variable of self must have an image.  Partial products are
        cached on monomial prefixes, so terms sharing factors (always the
        case for multilinear inputs) reuse work.
        """
        f = self.field
        for v in self.variables():
            if v not in images:
                raise StructureError(f"no image for variable {v!r}")
        power_cache: dict = {}
        prefix_cache: dict = {(): SparsePoly.const(f, f.one())}

        def img_power(v: VarKey, e: int) -> SparsePoly:
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                got = images[v].pow_int(e, budget=budget)
                power_cache[key] = got
            return got

        def prefix_product(mono: Mono) -> SparsePoly:
            got = prefix_cache.get(mono)
            if got is None:
                head = prefix_product(mono[:-1])
                v, e = mono[-1]
                got = head.mul(img_power(v, e), budget=budget)
                prefix_cache[mono] = got
            return got

        total = SparsePoly.zero(f)
        for mono, coeff in sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0])):
            total = total.add(prefix_product(mono).scale(coeff))
            if budget is not None and total.num_terms > budget:
                raise BudgetError(
                    f"composition exceeds term budget {budget}"
                )
        return total

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Any]]:
        return sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]))

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for mono, coeff in self.sorted_terms():
            factors = []
            cs = self.field.element_to_text(coeff)
            if not mono:
                parts.append(cs)
                continue
            if cs != "1":
                factors.append(cs)
            for v, e in mono:
                name = f"x{v}" if isinstance(v, int) else str(v)
                factors.append(name if e == 1 else f"{name}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    def __repr__(self) -> str:
        return f"SparsePoly({self})"

    def _check_same_field(self, other: "SparsePoly") -> None:
        if self.field != other.field:
            raise StructureError("mixed fields in polynomial arithmetic")
