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
checks each sum it forms, mul drops the zero sums once its products are in.

Over Q, sum_of_products (which mul runs on) and compose run on ints, not
Fractions: _cleared writes an operand's coefficients as integer numerators
over the lcm of their denominators, the kernel multiplies and adds those
ints, and one Fraction is built per term of the result.  The int
coefficients are the rational ones times one nonzero constant, so the same
terms cancel and the result is the same polynomial, term for term and in
the same order.

compose alone also works on another spelling: monomials packed into ints,
one bit field per seed variable under a field for the total degree.  Its
result keeps those packed keys and answers is_zero, num_terms and
least_monomial from them; the first read of its terms spells every key
once, as above, and caches the spelling.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from functools import cache
from typing import Any, Iterable, Iterator, Mapping

from .errors import BudgetError, StructureError
from .fields import Field, RationalField

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


def _cleared(coeffs: Iterable) -> tuple[int, list[int]]:
    """Rational coefficients over one denominator: (L, [c * L for each c]),
    for L the lcm of their denominators (1 when there are none)."""
    coeffs = list(coeffs)
    lcm = math.lcm(*(c.denominator for c in coeffs))
    return lcm, [c.numerator * (lcm // c.denominator) for c in coeffs]


def sum_of_products(field: Field, pairs: list[tuple["SparsePoly", "SparsePoly"]]) -> "SparsePoly":
    """The sum of p * q over the pairs, every p and q over field, in one
    accumulator: terms in the order the products first form them, the sums
    that cancel dropped at the end.

    Over Q the kernel runs on ints.  With p's numerators over L_p and q's
    over L_q (_cleared), and D the lcm of every L_p * L_q, a pair adds
    D / (L_p * L_q) * n_p * n_q for each product of terms; so each sum is
    its Fraction sum times D, the same monomials cancel, and one Fraction is
    built per term of the result.
    """
    for p, q in pairs:
        if p.field != field or q.field != field:
            raise StructureError("mixed fields in polynomial arithmetic")
    rational = isinstance(field, RationalField)
    if rational:
        cleared = [(_cleared(p.terms.values()), _cleared(q.terms.values())) for p, q in pairs]
        denom = math.lcm(*(d1 * d2 for (d1, _), (d2, _) in cleared))
        work = [
            (zip(p.terms, [denom // (d1 * d2) * n for n in nums1]), list(zip(q.terms, nums2)))
            for (p, q), ((d1, nums1), (d2, nums2)) in zip(pairs, cleared)
        ]
        mul, add = operator.mul, operator.add
    else:
        work = [(p.terms.items(), list(q.terms.items())) for p, q in pairs]
        mul, add = field.mul, field.add
    acc: dict = {}
    get = acc.get
    for left, right in work:
        for m1, c1 in left:
            for m2, c2 in right:
                m = mono_mul(m1, m2)
                c = mul(c1, c2)
                prev = get(m)
                acc[m] = c if prev is None else add(prev, c)
    if rational:
        return SparsePoly._from_nonzero(field, {m: Fraction(c, denom) for m, c in acc.items() if c})
    return SparsePoly(field, acc)


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
        """Product; BudgetError before any work when the operands' term counts
        multiply past budget."""
        if budget is not None and self.num_terms * other.num_terms > budget:
            raise BudgetError(
                f"product of {self.num_terms} x {other.num_terms} terms "
                f"exceeds term budget {budget}"
            )
        return sum_of_products(self.field, [(self, other)])

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
                    acc[m] = c
                    break
        return SparsePoly(f, acc)

    def compose(
        self,
        images: Mapping[VarKey, "SparsePoly"],
        budget: int = DEFAULT_TERM_BUDGET,
    ) -> "SparsePoly":
        """Substitute a polynomial for every variable and expand.

        Every variable of self must have an image in self's field.  Terms of
        self are taken in mono_sort_key order, and the partial product of
        each monomial prefix is cached in a trie, so terms sharing factors
        (always the case for multilinear inputs) reuse work.  A power of an
        image, and a prefix times a power, raise BudgetError before they
        are formed when their operands' term counts multiply past budget;
        the running sum raises once it holds more than budget terms.

        Packed keys.  Let E_v be the largest exponent of v in self and
        b_s = sum_v E_v * deg_s(g_v) for each seed s of the images g_v.
        Seed s owns bit_length(b_s) bits of an int key, fields laid out in
        var_sort_key order, and a monomial with s-exponents a_s <= b_s packs
        to sum_s a_s << o_s.  The packing is injective, since each a_s fits
        its field, and additive, since a_s + a'_s <= b_s never carries into
        the next field; so a monomial product is one int addition.  The
        bound covers every product formed: the power g_v^j, j <= E_v, has
        s-degree at most j * deg_s(g_v), and the partial product of a prefix
        of a monomial of self, like each product of two monomials that
        forms it, has s-degree at most the sum of e_v * deg_s(g_v) over the
        prefix; both are at most b_s.

        Degree field.  Above the seed fields, from bit o_top on, the key
        holds the monomial's total degree.  Degree adds under
        multiplication, and a product formed has total degree at most
        sum_v E_v * deg(g_v), by the argument above with deg for deg_s; so
        the field takes at most bit_length of that sum, and nothing lies
        above it for a sum to carry into.  The packing stays injective and
        additive.  Keys compare as ints, top field first, so the least key
        of the result has the least total degree in its top field: the
        monomials of that degree are the keys below (d + 1) << o_top.

        Lazy result.  compose returns its sum on packed keys, and keeps
        them.  is_zero, num_terms and least_monomial read the keys and spell
        nothing; the first read of terms spells every key, in the order the
        sum first formed it, and caches the spelling.  Like every SparsePoly
        the result is immutable, so its terms are spelled once.

        Integer coefficients over Q.  With L_v the lcm of the denominators
        of g_v, and D the lcm of the denominators of c_m / prod_v L_v^(e_v)
        over the terms c_m * prod_v v^(e_v) of self,

            f(g) = D^-1 * sum_m (D * c_m / prod_v L_v^(e_v)) * prod_v (L_v * g_v)^(e_v),

        where every factor but D^-1 has integer coefficients.  The kernel
        runs on ints, and spelling builds one Fraction per term.  Each
        intermediate is the Fraction one times a nonzero constant, so it has
        the same terms, and every budget check sees the same counts.  Other
        fields run the same kernel with their own add and mul.
        """
        f = self.field
        exps = self.individual_degrees()
        for v in exps:
            if v not in images:
                raise StructureError(f"no image for variable {v!r}")
        used = {v: images[v] for v in exps}
        bound: dict = {}
        for v, g in used.items():
            self._check_same_field(g)
            for s, d in g.individual_degrees().items():
                bound[s] = bound.get(s, 0) + exps[v] * d
        layout = []  # (seed, offset, mask) in var_sort_key order
        top = 0
        for s in sorted(bound, key=var_sort_key):
            width = bound[s].bit_length()
            layout.append((s, top, (1 << width) - 1))
            top += width
        where = {s: o for s, o, _ in layout}

        def pack(mono: Mono) -> int:
            return sum(e << where[s] for s, e in mono) + (mono_degree(mono) << top)

        ordered = sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]))
        rational = isinstance(f, RationalField)
        if rational:
            lcm, packed = {}, {}
            for v, g in used.items():
                lcm[v], nums = _cleared(g.terms.values())
                packed[v] = dict(zip(map(pack, g.terms), nums))
            denom, coeffs = _cleared(
                Fraction(c.numerator, c.denominator * math.prod(lcm[v] ** e for v, e in m))
                for m, c in ordered
            )
            mul, add, zero, one = operator.mul, operator.add, 0, 1
        else:
            packed = {v: {pack(m): c for m, c in g.terms.items()} for v, g in used.items()}
            coeffs = [c for _, c in ordered]
            mul, add, zero, one = f.mul, f.add, f.zero(), f.one()

        def product(left: dict, right: dict) -> dict:
            if len(left) * len(right) > budget:
                raise BudgetError(
                    f"product of {len(left)} x {len(right)} terms "
                    f"exceeds term budget {budget}"
                )
            acc: dict = {}
            get = acc.get
            pairs = list(right.items())
            for k1, c1 in left.items():
                for k2, c2 in pairs:
                    k = k1 + k2
                    c = mul(c1, c2)
                    prev = get(k)
                    acc[k] = c if prev is None else add(prev, c)
            return {k: c for k, c in acc.items() if c != zero}

        power_cache: dict = {}
        prefix_cache: dict = {(): {0: one}}

        def img_power(v: VarKey, e: int) -> dict:
            key = (v, e)
            got = power_cache.get(key)
            if got is None:
                got = {0: one}
                for _ in range(e):
                    got = product(got, packed[v])
                power_cache[key] = got
            return got

        def prefix_product(mono: Mono) -> dict:
            # extends the longest cached prefix; a closure calling itself
            # would be a reference cycle, keeping both caches alive after
            # compose returns until the cyclic garbage collector runs
            i = len(mono)
            while mono[:i] not in prefix_cache:
                i -= 1
            got = prefix_cache[mono[:i]]
            for j in range(i, len(mono)):
                v, e = mono[j]
                got = product(got, img_power(v, e))
                prefix_cache[mono[:j + 1]] = got
            return got

        total: dict = {}
        get = total.get
        for (mono, _), coeff in zip(ordered, coeffs):
            for k, c in prefix_product(mono).items():
                if coeff != one:
                    c = mul(c, coeff)
                prev = get(k)
                if prev is None:
                    total[k] = c
                else:
                    c = add(prev, c)
                    if c == zero:  # only a sum of two terms can cancel
                        del total[k]
                    else:
                        total[k] = c
            if len(total) > budget:
                raise BudgetError(f"composition exceeds term budget {budget}")

        return _PackedPoly(f, total, layout, top, denom if rational else None)

    # -- presentation ----------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Mono, Any]]:
        return sorted(self.terms.items(), key=lambda it: mono_sort_key(it[0]))

    def least_monomial(self) -> Mono:
        """The least monomial under mono_sort_key; ValueError when zero."""
        return min(self.terms, key=mono_sort_key)

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


class _PackedPoly(SparsePoly):
    """The result of compose, held on its packed keys.

    _packed maps each key to its coefficient, over Q the numerator over the
    common denominator _denom (None on other fields); _layout lists compose's
    (seed, offset, mask) fields and _top is the offset of the degree field.
    The first read of terms spells every key once and caches the spelling.
    """

    __slots__ = ("_packed", "_layout", "_top", "_denom", "_spelled")

    def __init__(self, field: Field, packed: dict, layout: list, top: int, denom: int | None):
        self.field = field
        self._packed = packed
        self._layout = layout
        self._top = top
        self._denom = denom
        self._spelled = None

    @property
    def terms(self) -> dict:
        if self._spelled is None:
            packed, denom = self._packed, self._denom
            coeffs = packed.values() if denom is None else (Fraction(c, denom) for c in packed.values())
            self._spelled = dict(zip(self._monos(packed), coeffs))
        return self._spelled

    @property
    def is_zero(self) -> bool:
        return not self._packed

    @property
    def num_terms(self) -> int:
        return len(self._packed)

    def least_monomial(self) -> Mono:
        packed, top = self._packed, self._top
        above = ((min(packed) >> top) + 1) << top  # keys of the least degree lie below
        return min(self._monos([k for k in packed if k < above]), key=mono_sort_key)

    def _monos(self, keys: Iterable[int]) -> Iterator[Mono]:
        """The spelling of each key, in order; the degree field is not read."""
        layout = self._layout
        for k in keys:
            yield tuple((s, e) for s, o, mask in layout if (e := k >> o & mask))
