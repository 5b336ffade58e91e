"""Field arithmetic: rationals, prime fields, and extensions."""

import random
from fractions import Fraction

import pytest

from oabp.abp import ConstLabel, VarLabel, make_abp
from oabp.errors import BudgetError, FieldError, FormatError
from oabp.fields import (
    _LOG_TABLE_LIMIT,
    ExtensionField,
    FieldConfig,
    _pmod,
    _text_int,
    _pmul,
    _trim,
    enumerate_points,
    extension_field,
    find_irreducible,
    is_irreducible,
    is_prime,
    make_field,
    min_extension_degree,
    prime_field,
    rationals,
)
from oabp.pit import hitset_test_abp


@pytest.mark.parametrize("text, value", [("7", 7), ("+7", 7), ("-7", -7), ("007", 7), ("0", 0)])
def test_text_int_reads_a_sign_and_ascii_digits(text, value):
    assert _text_int(text) == value


@pytest.mark.parametrize(
    "text",
    ["1_0", " 1", "1 ", "1\n", "\u0667", "\uff17", "", "+", "1.0", "0x7"],
    ids=["separator", "leading-space", "trailing-space", "newline", "arabic-indic-digit",
         "fullwidth-digit", "empty", "sign-only", "decimal-point", "hex"],
)
def test_text_int_refuses_what_int_reads_beyond_ascii_digits(text):
    with pytest.raises(ValueError, match="invalid literal for int"):
        _text_int(text)


def test_rational_arithmetic_is_exact():
    F = rationals()
    a = Fraction(1, 3)
    b = Fraction(1, 6)
    assert F.add(a, b) == Fraction(1, 2)
    assert F.mul(a, b) == Fraction(1, 18)
    assert F.inv(a) == 3
    assert F.sub(F.one(), F.one()) == F.zero()
    assert F.div(F.one(), Fraction(2)) == Fraction(1, 2)
    assert F.pow(Fraction(2, 3), 3) == Fraction(8, 27)
    assert F.size() is None


def test_prime_field_inverses_exhaustive():
    F = prime_field(7)
    for a in range(1, 7):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(FieldError):
        F.inv(0)


def test_prime_field_requires_prime_modulus():
    with pytest.raises(FieldError):
        prime_field(6)
    with pytest.raises(FieldError):
        prime_field(1)


def test_is_prime_matches_trial_division_and_is_exact_below_2_64():
    def trial(n):
        return n >= 2 and all(n % d for d in range(2, int(n**0.5) + 1))

    assert [n for n in range(3000) if is_prime(n)] == [n for n in range(3000) if trial(n)]
    # Carmichael numbers, and strong pseudoprimes to the bases 2 (2047),
    # 2..11 (3215031751) and 2..23 (3825123056546413051)
    for n in (561, 1105, 2047, 3215031751, 3825123056546413051, 9223372021822390277):
        assert not is_prime(n), n
    for n in (2**31 - 1, 2**61 - 1, 2**64 - 59):
        assert is_prime(n), n
    with pytest.raises(FieldError, match="not below 2\\^64"):
        is_prime(2**64 + 13)


def test_prime_field_matches_integer_arithmetic():
    F = prime_field(101)
    rng = random.Random(11)
    for _ in range(200):
        a, b = rng.randrange(101), rng.randrange(101)
        assert F.add(a, b) == (a + b) % 101
        assert F.mul(a, b) == (a * b) % 101
        assert F.sub(a, b) == (a - b) % 101
        assert F.neg(a) == (-a) % 101


# irreducible moduli for the two smallest interesting extensions, checked
# once by brute force and then frozen
def test_find_irreducible_frozen_values():
    assert find_irreducible(2, 2) == (1, 1, 1)  # x^2 + x + 1
    assert find_irreducible(3, 2) == (1, 0, 1)  # x^2 + 1
    assert find_irreducible(2, 3) == (1, 1, 0, 1)  # x^3 + x + 1


def brute_force_irreducible(coeffs, p):
    """A degree-d polynomial with no factor of degree <= d//2."""
    d = len(coeffs) - 1

    def poly_mul(f, g):
        out = [0] * (len(f) + len(g) - 1)
        for i, a in enumerate(f):
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
        return out

    def all_monic(deg):
        def rec(k):
            if k == deg:
                yield [1]
                return
            for c in range(p):
                for rest in rec(k + 1):
                    yield [c] + rest

        return rec(0)

    for deg_f in range(1, d // 2 + 1):
        for f in all_monic(deg_f):
            for g in all_monic(d - deg_f):
                prod = poly_mul(f, g)
                if tuple(c % p for c in prod) == tuple(coeffs):
                    return False
    return True


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (5, 2)])
def test_find_irreducible_agrees_with_brute_force(p, d):
    coeffs = find_irreducible(p, d)
    assert len(coeffs) == d + 1 and coeffs[-1] == 1
    assert is_irreducible(coeffs, p)
    assert brute_force_irreducible(coeffs, p)


def test_is_irreducible_rejects_products():
    # (x+1)^2 = x^2 + 2x + 1 over F_3
    assert not is_irreducible((1, 2, 1), 3)
    # x^2 over F_2
    assert not is_irreducible((0, 0, 1), 2)


def test_find_irreducible_budget():
    with pytest.raises(BudgetError):
        find_irreducible(2, 25)
    # 3^100000 has over 4300 digits, past what Python converts to text
    with pytest.raises(BudgetError, match=r"3\^100000 candidates"):
        find_irreducible(3, 100000)
    # 2^20 candidates is the budget itself, searched; 2^21 is past it
    assert find_irreducible(2, 20) == (1, 0, 0, 1) + (0,) * 16 + (1,)  # x^20 + x^3 + 1
    with pytest.raises(BudgetError, match=r"2\^21 candidates exceeds budget 1048576"):
        find_irreducible(2, 21)


def test_extension_field_f9_table():
    F9 = extension_field(3, 2)  # modulus x^2 + 1
    x = (0, 1)
    assert F9.mul(x, x) == (2, 0)  # x^2 = -1 = 2
    assert F9.add((1, 2), (2, 2)) == (0, 1)
    assert F9.size() == 9
    for idx in range(1, 9):
        a = F9.element_at(idx)
        assert F9.mul(a, F9.inv(a)) == F9.one()
    with pytest.raises(FieldError):
        F9.inv(F9.zero())


def _reference_ops(F):
    """add, sub and mul of F coefficient by coefficient, the product by
    _pmul reduced by _pmod: arithmetic that uses no table."""
    p, d = F.p, F.deg

    def wrap(cs):
        return tuple(cs + [0] * (d - len(cs)))

    def mul(a, b):
        return wrap(_pmod(_pmul(_trim(list(a)), _trim(list(b)), p), list(F.modulus), p))

    def add(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def sub(a, b):
        return tuple((x - y) % p for x, y in zip(a, b))

    return add, sub, mul


@pytest.mark.parametrize("p,d", [(2, 2), (2, 3), (3, 2), (2, 4), (5, 2), (3, 3), (7, 2)])
def test_extension_mul_matches_polynomial_reduction(p, d):
    # every pair of F_4, F_8, F_9, F_16, F_25, F_27 and F_49, on the log
    # tables: mul against the product reduced by _pmod, and add, sub, inv
    # and pow against the same reference arithmetic
    F = extension_field(p, d)
    assert F.size() <= _LOG_TABLE_LIMIT and F._log_tables is not None
    add, sub, mul = _reference_ops(F)
    elements = [F.element_at(j) for j in range(p**d)]
    for a in elements:
        for b in elements:
            assert F.add(a, b) == add(a, b), (a, b)
            assert F.sub(a, b) == sub(a, b), (a, b)
            assert F.mul(a, b) == mul(a, b), (a, b)
        if a != F.zero():
            assert mul(a, F.inv(a)) == F.one(), a
        want = F.one()
        for e in range(p**d + 2):
            assert F.pow(a, e) == want, (a, e)
            want = mul(want, a)
    with pytest.raises(FieldError, match="division by zero"):
        F.inv(F.zero())


def test_extension_above_the_table_limit_uses_the_schoolbook_product():
    F = ExtensionField(67, 2)
    assert F.size() == 4489 > _LOG_TABLE_LIMIT
    assert F._log_tables is None
    add, sub, mul = _reference_ops(F)
    rng = random.Random(4)
    for _ in range(500):
        a, b = (F.element_at(rng.randrange(4489)) for _ in range(2))
        assert F.add(a, b) == add(a, b)
        assert F.sub(a, b) == sub(a, b)
        assert F.mul(a, b) == mul(a, b)
        if a != F.zero():
            assert mul(a, F.inv(a)) == F.one()


def test_building_the_tables_makes_no_counted_operation(monkeypatch):
    # a full hitset grid over a fresh F_9 object, whose tables are built
    # during the first verdict, makes the same add, mul and inv calls as
    # the same verdict on the object once its tables exist
    F = ExtensionField(3, 2)
    counts = dict.fromkeys(("add", "mul", "inv"), 0)
    for op in counts:
        method = getattr(ExtensionField, op)

        def counted(self, *args, op=op, method=method):
            counts[op] += 1
            return method(self, *args)

        monkeypatch.setattr(ExtensionField, op, counted)
    # 0 * x1 * x2: read once, zero, so the verdict walks the whole grid
    prog = make_abp(
        F,
        2,
        [["s"], ["a"], ["b"], ["t"]],
        [("s", "a", ConstLabel(F.zero())), ("a", "b", VarLabel(1)), ("b", "t", VarLabel(2))],
    )
    seen = []
    for _ in range(2):
        counts.update(dict.fromkeys(counts, 0))
        verdict = hitset_test_abp(prog, 1)
        assert verdict.verdict == "ZERO" and verdict.field is F
        seen.append(dict(counts))
    assert "_log_tables" in F.__dict__
    assert seen[0] == seen[1]
    assert min(seen[0].values()) > 0


@pytest.mark.parametrize(
    "F, a",
    [(rationals(), Fraction(2)), (prime_field(5), 2), (extension_field(3, 2), (0, 1))],
    ids=["Q", "F5", "F9"],
)
def test_pow_refuses_a_negative_exponent(F, a):
    with pytest.raises(FieldError, match="negative exponent -1"):
        F.pow(a, -1)
    assert F.pow(a, 0) == F.one()


def test_extension_field_frobenius_fixes_everything():
    # a^(p^d) = a for every element of F_{p^d}
    for p, d in ((2, 2), (2, 3), (3, 2)):
        F = extension_field(p, d)
        for idx in range(p**d):
            a = F.element_at(idx)
            assert F.pow(a, p**d) == a


def test_extension_embed_respects_operations():
    F3 = prime_field(3)
    F9 = extension_field(3, 2)
    for a in range(3):
        for b in range(3):
            assert F9.embed(F3.add(a, b)) == F9.add(F9.embed(a), F9.embed(b))
            assert F9.embed(F3.mul(a, b)) == F9.mul(F9.embed(a), F9.embed(b))


def test_enumerate_points_prefix_stable():
    for F in (rationals(), prime_field(5), extension_field(2, 2)):
        short = enumerate_points(F, 3)
        long = enumerate_points(F, 4)
        assert long[:3] == short


def test_enumerate_points_canonical_order():
    assert enumerate_points(rationals(), 4) == (
        Fraction(0),
        Fraction(1),
        Fraction(2),
        Fraction(3),
    )
    assert enumerate_points(prime_field(5), 5) == (0, 1, 2, 3, 4)
    # base-p counting with the constant digit moving fastest
    assert enumerate_points(extension_field(2, 2), 4) == (
        (0, 0),
        (1, 0),
        (0, 1),
        (1, 1),
    )


def test_enumerate_points_too_many():
    with pytest.raises(FieldError):
        enumerate_points(prime_field(3), 4)


def test_min_extension_degree():
    assert min_extension_degree(2, 3) == 2
    assert min_extension_degree(2, 5) == 3
    assert min_extension_degree(3, 10) == 3
    assert min_extension_degree(2, 4) == 2


def test_field_config_round_trip():
    for F in (rationals(), prime_field(13), extension_field(2, 3)):
        cfg = FieldConfig.from_json(F.config.to_json())
        assert make_field(cfg) == F


def test_field_equality_and_cache():
    assert prime_field(7) == prime_field(7)
    assert prime_field(7) is prime_field(7)
    assert prime_field(7) != prime_field(11)
    assert rationals() != prime_field(7)


def test_element_text_round_trip():
    F = rationals()
    for text in ("3", "-2", "1/2", "-7/3"):
        assert F.element_to_text(F.element_from_text(text)) == text
    # command line text may be an exact decimal, which JSON may not
    assert F.element_from_text("0.5") == Fraction(1, 2)
    Fp = prime_field(7)
    assert Fp.element_from_text("9") == 2
    F8 = extension_field(2, 3)
    assert F8.element_from_text("1:0:1") == (1, 0, 1)
    assert F8.element_to_text((1, 0, 1)) == "1:0:1"
    with pytest.raises(FormatError):
        F8.element_from_text("1:0")


def test_element_json_validation():
    Q = rationals()
    assert Q.element_from_json("-7/3") == Fraction(-7, 3)
    assert Q.element_from_json(4) == 4
    for v in (0.1, 1e-400, 2.0, True, None, [1]):
        with pytest.raises(FormatError):
            Q.element_from_json(v)
    Fp = prime_field(5)
    with pytest.raises(FormatError):
        Fp.element_from_json(7)
    with pytest.raises(FormatError):
        Fp.element_from_json("3")
    F4 = extension_field(2, 2)
    with pytest.raises(FormatError):
        F4.element_from_json([1])
    assert F4.element_from_json([1, 1]) == (1, 1)


def test_from_int_wraps_characteristic():
    assert prime_field(5).from_int(-1) == 4
    assert extension_field(2, 2).from_int(3) == (1, 0)
    assert rationals().from_int(-2) == Fraction(-2)
