"""Exact field arithmetic: rationals, prime fields, and extension fields.

Elements are plain hashable Python values so they can key dictionaries and
serialize cheaply:

* rationals        -> ``fractions.Fraction``
* prime field      -> ``int`` residue in ``[0, p)``
* extension field  -> ``tuple[int, ...]`` of length ``deg``, coefficients of
  the residue polynomial listed constant term first, each in ``[0, p)``

A ``Field`` object carries the operations.  Two fields compare equal exactly
when their configurations do, which makes field objects usable as cache keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Iterator

from .errors import BudgetError, FieldError, FormatError

# Exhaustive searches over F_p[x] stay below this many candidates.
DEFAULT_SEARCH_BUDGET = 1 << 20


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality check, adequate at this scale."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# ---------------------------------------------------------------------------
# F_p[x] helpers.  Polynomials are lists of residues, constant term first,
# with no trailing zeros (the zero polynomial is the empty list).
# ---------------------------------------------------------------------------


def _trim(cs: list[int]) -> list[int]:
    while cs and cs[-1] == 0:
        cs.pop()
    return cs


def _pmul(a: list[int], b: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _trim(out)


def _pmod(a: list[int], m: list[int], p: int) -> list[int]:
    # m must be monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        c = a[-1]
        if c:
            shift = len(a) - 1 - dm
            for j, mj in enumerate(m):
                a[shift + j] = (a[shift + j] - c * mj) % p
        _trim(a)
        if not a:
            break
    return _trim(a)


def _pgcd(a: list[int], b: list[int], p: int) -> list[int]:
    a, b = list(a), list(b)
    while b:
        if b[-1] != 1:  # make divisor monic before reducing
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
    if a and a[-1] != 1:
        inv = pow(a[-1], p - 2, p)
        a = [(c * inv) % p for c in a]
    return a


def is_irreducible(coeffs: tuple[int, ...] | list[int], p: int) -> bool:
    """Test a monic polynomial over F_p for irreducibility.

    A monic f of degree d is reducible iff it has an irreducible factor of
    degree at most d/2, and x^(p^i) - x is the product of all monic
    irreducibles of degree dividing i.  So f is irreducible iff
    gcd(x^(p^i) - x mod f, f) = 1 for every i up to d/2.
    """
    f = _trim(list(coeffs))
    d = len(f) - 1
    if d < 1:
        return False
    if f[-1] != 1:
        return False
    if d == 1:
        return True
    xp = [0, 1]  # running power x^(p^i) mod f
    for _ in range(d // 2):
        # one Frobenius step: raise to the p-th power mod f
        acc = [1]
        base = xp
        e = p
        while e:
            if e & 1:
                acc = _pmod(_pmul(acc, base, p), f, p)
            base = _pmod(_pmul(base, base, p), f, p)
            e >>= 1
        xp = acc
        diff = list(xp)
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % p
        g = _pgcd(f, _trim(diff), p)
        if len(g) - 1 >= 1:
            return False
    return True


def find_irreducible(p: int, d: int, budget: int = DEFAULT_SEARCH_BUDGET) -> tuple[int, ...]:
    """Smallest monic irreducible of degree d over F_p.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are tried in lexicographic
    order of (c_{d-1}, ..., c_1, c_0), i.e. counting order of the lower
    coefficients.  Returns the full coefficient vector, constant term first,
    length d + 1.
    """
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if d < 1:
        raise FieldError(f"degree must be positive, got {d}")
    total = p**d
    if total > budget:
        raise BudgetError(
            f"irreducible search over {total} candidates exceeds budget {budget}"
        )
    for j in range(total):
        lower = []
        t = j
        for _ in range(d):
            lower.append(t % p)
            t //= p
        coeffs = lower + [1]
        if is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise FieldError(f"no irreducible of degree {d} over F_{p}")  # unreachable


# ---------------------------------------------------------------------------
# Field configurations and field objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldConfig:
    """Serializable description of a field.

    kind is one of "rational", "prime", "extension".  For extensions the
    modulus is the monic irreducible coefficient vector, constant term first,
    of length deg + 1; leave it None to have make_field search for the
    smallest one.
    """

    kind: str
    p: int | None = None
    deg: int | None = None
    modulus: tuple[int, ...] | None = None

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        if self.kind == "prime":
            return {"kind": "prime", "p": self.p}
        return {
            "kind": "extension",
            "p": self.p,
            "deg": self.deg,
            "modulus": list(self.modulus or ()),
        }

    @staticmethod
    def from_json(data: Any) -> "FieldConfig":
        try:
            kind = data["kind"]
            if kind == "rational":
                return FieldConfig("rational")
            if kind == "prime":
                return FieldConfig("prime", p=int(data["p"]))
            if kind == "extension":
                modulus = data.get("modulus")
                return FieldConfig(
                    "extension",
                    p=int(data["p"]),
                    deg=int(data["deg"]),
                    modulus=tuple(int(c) for c in modulus) if modulus is not None else None,
                )
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            raise FormatError(f"bad field config {data!r}: {exc}") from exc
        raise FormatError(f"unknown field kind {kind!r}")


class Field:
    """Operation bundle for one field; subclasses fix the element type."""

    config: FieldConfig

    def zero(self):
        raise NotImplementedError

    def one(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        acc = self.one()
        base = a
        while e:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def from_int(self, n: int):
        raise NotImplementedError

    def size(self) -> int | None:
        """Number of elements, or None for infinite fields."""
        return None

    def element_at(self, j: int):
        """j-th element of the canonical enumeration (see enumerate_points)."""
        raise NotImplementedError

    def is_element(self, a) -> bool:
        raise NotImplementedError

    def element_to_json(self, a):
        raise NotImplementedError

    def element_from_json(self, v):
        raise NotImplementedError

    def element_to_text(self, a) -> str:
        raise NotImplementedError

    def element_from_text(self, s: str):
        raise NotImplementedError

    def __eq__(self, other) -> bool:
        return isinstance(other, Field) and self.config == other.config

    def __hash__(self) -> int:
        return hash(self.config)

    def __repr__(self) -> str:
        return f"Field({self.config})"


class RationalField(Field):
    def __init__(self) -> None:
        self.config = FieldConfig("rational")

    def zero(self):
        return Fraction(0)

    def one(self):
        return Fraction(1)

    def add(self, a, b):
        return a + b

    def neg(self, a):
        return -a

    def mul(self, a, b):
        return a * b

    def inv(self, a):
        if a == 0:
            raise FieldError("division by zero")
        return 1 / a

    def from_int(self, n: int):
        return Fraction(n)

    def size(self) -> int | None:
        return None

    def element_at(self, j: int):
        return Fraction(j)

    def is_element(self, a) -> bool:
        return isinstance(a, Fraction)

    def element_to_json(self, a):
        return str(a)

    def element_from_json(self, v):
        try:
            return Fraction(str(v))
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {v!r}: {exc}") from exc

    element_to_text = element_to_json
    element_from_text = element_from_json


class PrimeField(Field):
    def __init__(self, p: int) -> None:
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        self.p = p
        self.config = FieldConfig("prime", p=p)

    def zero(self):
        return 0

    def one(self):
        return 1 % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise FieldError("division by zero")
        return pow(a, self.p - 2, self.p)

    def from_int(self, n: int):
        return n % self.p

    def size(self) -> int | None:
        return self.p

    def element_at(self, j: int):
        if not 0 <= j < self.p:
            raise FieldError(f"element index {j} out of range for F_{self.p}")
        return j

    def is_element(self, a) -> bool:
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.p

    def element_to_json(self, a):
        return a

    def element_from_json(self, v):
        if isinstance(v, bool) or not isinstance(v, int):
            raise FormatError(f"bad residue {v!r} for F_{self.p}")
        if not 0 <= v < self.p:
            raise FormatError(f"residue {v} out of range for F_{self.p}")
        return v

    def element_to_text(self, a) -> str:
        return str(a)

    def element_from_text(self, s: str):
        try:
            return int(s) % self.p
        except ValueError as exc:
            raise FormatError(f"bad residue {s!r}: {exc}") from exc


class ExtensionField(Field):
    """F_{p^deg} as residue polynomials modulo a monic irreducible.

    Elements are coefficient tuples of length deg, constant term first.
    """

    def __init__(self, p: int, deg: int, modulus: tuple[int, ...] | None = None) -> None:
        if not is_prime(p):
            raise FieldError(f"p = {p} is not prime")
        if deg < 2:
            raise FieldError(f"extension degree must be >= 2, got {deg}")
        if modulus is None:
            modulus = find_irreducible(p, deg)
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != deg + 1 or modulus[-1] != 1:
            raise FieldError(f"modulus must be monic of degree {deg}: {modulus}")
        if not is_irreducible(modulus, p):
            raise FieldError(f"modulus {modulus} is reducible over F_{p}")
        self.p = p
        self.deg = deg
        self.modulus = modulus
        self.config = FieldConfig("extension", p=p, deg=deg, modulus=modulus)

    def _wrap(self, cs: list[int]) -> tuple[int, ...]:
        cs = cs + [0] * (self.deg - len(cs))
        return tuple(cs[: self.deg])

    def zero(self):
        return (0,) * self.deg

    def one(self):
        return self._wrap([1])

    def add(self, a, b):
        p = self.p
        return tuple([(x + y) % p for x, y in zip(a, b)])

    def neg(self, a):
        p = self.p
        return tuple([(-x) % p for x in a])

    def mul(self, a, b):
        # schoolbook product; then, from the top coefficient t down to deg,
        # subtract c * x^(t-deg) * modulus, which clears coefficient t
        p, d = self.p, self.deg
        prod = [0] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                k = i
                for bj in b:
                    prod[k] += ai * bj
                    k += 1
        for t in range(2 * d - 2, d - 1, -1):
            c = prod[t] % p
            if c:
                k = t - d
                for mj in self.modulus:
                    prod[k] -= c * mj
                    k += 1
        return tuple([c % p for c in prod[:d]])

    def inv(self, a):
        # extended Euclid in F_p[x]
        p = self.p
        r0, r1 = list(self.modulus), _trim(list(a))
        if not r1:
            raise FieldError("division by zero")
        s0, s1 = [], [1]
        while r1:
            # divide r0 by r1
            rem = list(r0)
            dm = len(r1) - 1
            lead_inv = pow(r1[-1], p - 2, p)
            qc = [0] * (max(len(rem) - len(r1) + 1, 0))
            while len(rem) - 1 >= dm and rem:
                c = (rem[-1] * lead_inv) % p
                shift = len(rem) - 1 - dm
                qc[shift] = c
                for j, mj in enumerate(r1):
                    rem[shift + j] = (rem[shift + j] - c * mj) % p
                _trim(rem)
            q = _trim(qc)
            r0, r1 = r1, rem
            qs1 = _pmul(q, s1, p)
            new_s = [0] * max(len(s0), len(qs1))
            for i, c in enumerate(s0):
                new_s[i] = c
            for i, c in enumerate(qs1):
                new_s[i] = (new_s[i] - c) % p
            s0, s1 = s1, _trim(new_s)
        # r0 is the gcd, a unit since modulus is irreducible
        lead_inv = pow(r0[-1], p - 2, p)
        return self._wrap([(c * lead_inv) % p for c in s0])

    def from_int(self, n: int):
        return self._wrap([n % self.p])

    def embed(self, residue: int):
        """Lift a base-field residue into this extension."""
        return self.from_int(residue)

    def size(self) -> int | None:
        return self.p**self.deg

    def element_at(self, j: int):
        if not 0 <= j < self.p**self.deg:
            raise FieldError(f"element index {j} out of range for F_{self.p}^{self.deg}")
        cs = []
        for _ in range(self.deg):
            cs.append(j % self.p)
            j //= self.p
        return tuple(cs)

    def is_element(self, a) -> bool:
        return (
            isinstance(a, tuple)
            and len(a) == self.deg
            and all(isinstance(c, int) and 0 <= c < self.p for c in a)
        )

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, v):
        if not isinstance(v, list) or len(v) != self.deg:
            raise FormatError(f"bad extension element {v!r}: need {self.deg} coefficients")
        try:
            return tuple(int(c) % self.p for c in v)
        except (TypeError, ValueError) as exc:
            raise FormatError(f"bad extension element {v!r}") from exc

    def element_to_text(self, a) -> str:
        return ":".join(str(c) for c in a)

    def element_from_text(self, s: str):
        parts = s.split(":")
        if len(parts) != self.deg:
            raise FormatError(f"bad extension element {s!r}: need {self.deg} coefficients")
        try:
            return tuple(int(c) % self.p for c in parts)
        except ValueError as exc:
            raise FormatError(f"bad extension element {s!r}") from exc


_FIELD_CACHE: dict[FieldConfig, Field] = {}


def make_field(config: FieldConfig) -> Field:
    """Build (and cache) the field described by config."""
    if config in _FIELD_CACHE:
        return _FIELD_CACHE[config]
    if config.kind == "rational":
        field: Field = RationalField()
    elif config.kind == "prime":
        if config.p is None:
            raise FieldError("prime field needs p")
        field = PrimeField(config.p)
    elif config.kind == "extension":
        if config.p is None or config.deg is None:
            raise FieldError("extension field needs p and deg")
        field = ExtensionField(config.p, config.deg, config.modulus)
    else:
        raise FieldError(f"unknown field kind {config.kind!r}")
    _FIELD_CACHE[config] = field
    _FIELD_CACHE[field.config] = field  # filled-in modulus
    return field


def rationals() -> Field:
    return make_field(FieldConfig("rational"))


def prime_field(p: int) -> Field:
    return make_field(FieldConfig("prime", p=p))


def extension_field(p: int, deg: int, modulus: tuple[int, ...] | None = None) -> Field:
    return make_field(FieldConfig("extension", p=p, deg=deg, modulus=modulus))


def enumerate_points(field: Field, m: int) -> tuple:
    """First m points of the field's canonical enumeration.

    Rationals count 0, 1, 2, ...; prime fields list residues in order;
    extension fields count coefficient vectors in base p, constant term
    moving fastest.  Prefixes are stable: enumerate_points(f, m) is a prefix
    of enumerate_points(f, m') for m <= m'.
    """
    if m < 0:
        raise FieldError(f"point count must be nonnegative, got {m}")
    sz = field.size()
    if sz is not None and m > sz:
        raise FieldError(
            f"requested {m} distinct points but the field has only {sz}; "
            f"use an extension field"
        )
    return tuple(field.element_at(j) for j in range(m))


def min_extension_degree(p: int, needed: int) -> int:
    """Smallest d with p^d >= needed (d >= 2)."""
    d = 2
    while p**d < needed:
        d += 1
    return d
