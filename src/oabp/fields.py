"""Exact field arithmetic: rationals, prime fields, and extension fields.

Elements are plain hashable Python values so they can key dictionaries and
serialize cheaply:

* rationals        -> ``fractions.Fraction``
* prime field      -> ``int`` residue in ``[0, p)``
* extension field  -> ``tuple[int, ...]`` of length ``deg``, coefficients of
  the residue polynomial listed constant term first, each in ``[0, p)``

A ``Field`` object carries the operations.  Two fields compare equal exactly
when their configurations do, which makes field objects usable as cache keys.

An extension field of at most ``_LOG_TABLE_LIMIT`` elements multiplies, adds
and inverts through discrete-log tables, built on first use from the
schoolbook product; larger ones use the schoolbook product itself.  Both
paths give the same elements, and building the tables calls none of the
public add, mul or inv.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cache, cached_property
from fractions import Fraction
from typing import Any

from .errors import BudgetError, FieldError, FormatError

# Exhaustive searches over F_p[x] stay below this many candidates.
DEFAULT_SEARCH_BUDGET = 1 << 20

# Extension fields of at most this many elements get discrete-log tables
# (ExtensionField._log_tables).  At the limit, F_{2^12}'s tables hold 4096
# element tuples, a 4096-entry log dict and 20476 tuple slots, about 1 MB,
# and build in about 0.1 s on one core of a 2 vCPU x86-64 host (F_{5^5},
# which tries more candidate generators, in about 0.2 s).
_LOG_TABLE_LIMIT = 2**12

# A file spells a rational as element_to_json does; typed text may add a
# decimal point.  Neither takes an exponent, for which Fraction builds 10^e.
_RATIONAL_JSON = re.compile(r"-?[0-9]+(/[0-9]+)?")
_DECIMAL_TEXT = re.compile(r"[-+]?[0-9]+")
_RATIONAL_TEXT = re.compile(r"[-+]?([0-9]+(/[0-9]+)?|[0-9]*\.[0-9]+|[0-9]+\.)")


# Miller-Rabin with these bases decides primality exactly below
# 3.18 * 10^23 (Sorenson and Webster 2015), so for every n < 2^64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test; FieldError for n >= 2^64,
    where its bases no longer make it exact."""
    if n >= 1 << 64:
        raise FieldError(f"p = {n} is not below 2^64")
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
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
    """gcd of a and b, monic when a is: the last divisor, made monic, or a."""
    a, b = list(a), list(b)
    while b:
        if b[-1] != 1:  # make divisor monic before reducing
            inv = pow(b[-1], p - 2, p)
            b = [(c * inv) % p for c in b]
        a, b = b, _pmod(a, b, p)
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


def find_irreducible(p: int, d: int) -> tuple[int, ...]:
    """Smallest monic irreducible of degree d over F_p.

    Candidates x^d + c_{d-1} x^{d-1} + ... + c_0 are tried in lexicographic
    order of (c_{d-1}, ..., c_1, c_0), i.e. counting order of the lower
    coefficients.  Returns the full coefficient vector, constant term first,
    length d + 1.  BudgetError when the p^d candidates exceed
    DEFAULT_SEARCH_BUDGET.
    """
    budget = DEFAULT_SEARCH_BUDGET
    if not is_prime(p):
        raise FieldError(f"p = {p} is not prime")
    if d < 1:
        raise FieldError(f"degree must be positive, got {d}")
    # p >= 2, so d >= budget.bit_length() means p^d > budget: refuse before
    # building p^d, which can be too large to print
    if d >= budget.bit_length() or p**d > budget:
        raise BudgetError(f"irreducible search over {p}^{d} candidates exceeds budget {budget}")
    for j in range(p**d):
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


def _json_int(v: Any, what: str, low: int | None = None, below: int | None = None) -> int:
    """v, when JSON gave an integer (not a boolean, which Python counts as
    an int, nor a float) that is at least low and less than below, where
    given; else FormatError naming what was read.  The one reader of every
    integer in a file or config."""
    if type(v) is not int:
        raise FormatError(f"bad {what} {v!r}: not an integer")
    if low is not None and v < low:
        raise FormatError(f"bad {what} {v}: want at least {low}")
    if below is not None and v >= below:
        raise FormatError(f"bad {what} {v}: want less than {below}")
    return v


def _text_int(s: str) -> int:
    """int(s) when s is an optional sign and ASCII decimal digits, else the
    ValueError int() gives for bad text; int() itself also takes `_`
    separators, surrounding whitespace and non-ASCII digits.  The one reader
    of every integer typed on a command line."""
    if not _DECIMAL_TEXT.fullmatch(s):
        raise ValueError(f"invalid literal for int() with base 10: {s!r}")
    return int(s)


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
                return FieldConfig("prime", p=_json_int(data["p"], "field p"))
            if kind == "extension":
                p = _json_int(data["p"], "field p")
                modulus = data.get("modulus")
                if modulus is not None:
                    modulus = tuple(_json_int(c, "modulus coefficient", 0, p) for c in modulus)
                return FieldConfig(
                    "extension", p=p, deg=_json_int(data["deg"], "field deg"), modulus=modulus
                )
        except (KeyError, TypeError) as exc:
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
        """a^e for e >= 0; FieldError for e < 0."""
        if e < 0:
            raise FieldError(f"negative exponent {e}")
        acc = self.one()
        base = a
        while e > 0:
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

    def element_at(self, j: int):
        return Fraction(j)

    def is_element(self, a) -> bool:
        return isinstance(a, Fraction)

    def element_to_json(self, a):
        return str(a)

    def element_from_json(self, v):
        # no float: JSON's 0.1 is a binary approximation, and 1e-400 reads as 0.0
        if type(v) is int:
            return Fraction(v)
        if not isinstance(v, str):
            raise FormatError(f"bad rational {v!r}: want a string or an integer")
        if not _RATIONAL_JSON.fullmatch(v):
            raise FormatError(f"bad rational {v!r}: want an integer or p/q")
        return self.element_from_text(v)

    element_to_text = element_to_json

    def element_from_text(self, s: str):
        if not _RATIONAL_TEXT.fullmatch(s):
            raise FormatError(f"bad rational {s!r}: want an integer, p/q or a decimal")
        try:
            return Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            raise FormatError(f"bad rational {s!r}: {exc}") from exc


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
        return _json_int(v, f"F_{self.p} residue", 0, self.p)

    def element_to_text(self, a) -> str:
        return str(a)

    def element_from_text(self, s: str):
        try:
            return _text_int(s) % self.p
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

    @cached_property
    def _log_tables(self) -> tuple | None:
        """(log, exp, zech, n) when the field has at most _LOG_TABLE_LIMIT
        elements, else None; built on first use, once per field object.

        n = p^deg - 1 is the order of the multiplicative group and g its
        first generator in the canonical enumeration.  log maps g^i to i for
        0 <= i < n, and zero to 2n.  exp[i] is g^(i mod n) for i < 2n and
        zero for 2n <= i <= 4n, so exp[log[a] + log[b]] = a * b for every
        pair, zero included.  zech[i] = log[1 + g^i] (2n when 1 + g^i = 0),
        so g^i + g^j = g^(i + zech[j - i]).  Only the private schoolbook
        product builds them, so building them makes no call to add, mul or
        inv, and callers count the same calls before and after.
        """
        p, d = self.p, self.deg
        q = p**d
        if q > _LOG_TABLE_LIMIT:
            return None
        n = q - 1
        one, zero = self.one(), self.zero()
        for j in range(1, q):
            g = self.element_at(j)
            powers = [one]
            acc = g
            while acc != one:
                powers.append(acc)
                acc = self._mul_schoolbook(acc, g)
            if len(powers) == n:
                break
        log = {a: i for i, a in enumerate(powers)}
        log[zero] = 2 * n
        exp = tuple(powers + powers + [zero] * (2 * n + 1))
        zech = tuple(log[((a[0] + 1) % p,) + a[1:]] for a in powers)
        return log, exp, zech, n

    def add(self, a, b):
        tables = self._log_tables
        if tables is None:
            p = self.p
            return tuple([(x + y) % p for x, y in zip(a, b)])
        log, exp, zech, n = tables
        la, lb = log[a], log[b]
        if la >= n:  # a is zero
            return b
        if lb >= n:
            return a
        return exp[la + zech[lb - la]]  # zech's negative indices wrap mod n

    def neg(self, a):
        p = self.p
        return tuple([(-x) % p for x in a])

    def mul(self, a, b):
        tables = self._log_tables
        if tables is None:
            return self._mul_schoolbook(a, b)
        log, exp = tables[0], tables[1]
        return exp[log[a] + log[b]]

    def _mul_schoolbook(self, a, b):
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
        tables = self._log_tables
        if tables is None:
            # the nonzero elements form a group of order p^deg - 1
            if not any(a):
                raise FieldError("division by zero")
            return self.pow(a, self.p**self.deg - 2)
        log, exp, _, n = tables
        la = log[a]
        if la >= n:
            raise FieldError("division by zero")
        return exp[n - la]

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
            and all(
                isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.p for c in a
            )
        )

    def element_to_json(self, a):
        return list(a)

    def element_from_json(self, v):
        if not isinstance(v, list) or len(v) != self.deg:
            raise FormatError(f"bad extension element {v!r}: need {self.deg} coefficients")
        return tuple(_json_int(c, f"F_{self.p} coefficient", 0, self.p) for c in v)

    def element_to_text(self, a) -> str:
        return ":".join(str(c) for c in a)

    def element_from_text(self, s: str):
        parts = s.split(":")
        if len(parts) != self.deg:
            raise FormatError(f"bad extension element {s!r}: need {self.deg} coefficients")
        try:
            return tuple(_text_int(c) % self.p for c in parts)
        except ValueError as exc:
            raise FormatError(f"bad extension element {s!r}") from exc


@cache
def make_field(config: FieldConfig) -> Field:
    """Build the field described by config, once per config."""
    if config.kind == "rational":
        return RationalField()
    if config.kind == "prime":
        if config.p is None:
            raise FieldError("prime field needs p")
        return PrimeField(config.p)
    if config.kind == "extension":
        if config.p is None or config.deg is None:
            raise FieldError("extension field needs p and deg")
        return ExtensionField(config.p, config.deg, config.modulus)
    raise FieldError(f"unknown field kind {config.kind!r}")


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
