"""Sparse polynomial arithmetic against simple independent references."""

import itertools
import random
from fractions import Fraction

import pytest
from reference import compose_reference, mono_mul_reference, mul_reference, over_prime

import oabp.generator
import oabp.poly
from oabp.abp import expand
from oabp.corpus import standard_corpus
from oabp.errors import BudgetError, StructureError
from oabp.fields import prime_field, rationals
from oabp.generator import GeneratorParams, build_generator
from oabp.pit import _working_program, level_for
from oabp.poly import (
    DEFAULT_TERM_BUDGET,
    SparsePoly,
    mono_mul,
    mono_sort_key,
    sum_of_products,
    var_sort_key,
)
from oabp.serialize import poly_from_json

Q = rationals()


def x(i, field=Q):
    return SparsePoly.variable(field, i)


def const(c, field=Q):
    return SparsePoly.const(field, field.from_int(c))


def random_poly(field, rng, nvars=3, nterms=4, max_exp=2):
    terms = {}
    for _ in range(nterms):
        mono = tuple(
            (v, rng.randint(1, max_exp))
            for v in sorted(rng.sample(range(1, nvars + 1), rng.randint(0, nvars)))
        )
        terms[mono] = field.from_int(rng.randint(-5, 5))
    return SparsePoly(field, terms)


def test_construction_drops_zero_coefficients():
    p = SparsePoly(Q, {((1, 1),): Fraction(0), ((2, 1),): Fraction(3)})
    assert p.num_terms == 1
    assert p.variables() == {2}


def test_zero_const_variable_basics():
    z = SparsePoly.zero(Q)
    assert z.is_zero and z.num_terms == 0 and z.total_degree() == 0
    c = const(5)
    assert c.terms == {(): 5} and c.total_degree() == 0
    v = x(2)
    assert v.individual_degrees() == {2: 1}
    assert v.variables() == {2}


def test_add_mul_against_evaluation():
    # exact arithmetic must commute with evaluation at random points
    rng = random.Random(5)
    for _ in range(40):
        p = random_poly(Q, rng)
        q = random_poly(Q, rng)
        point = {v: Fraction(rng.randint(-4, 4)) for v in range(1, 4)}
        assert (p.add(q)).evaluate(point) == p.evaluate(point) + q.evaluate(point)
        assert (p.mul(q)).evaluate(point) == p.evaluate(point) * q.evaluate(point)
        assert (p.sub(q)).evaluate(point) == p.evaluate(point) - q.evaluate(point)
        assert p.neg().evaluate(point) == -p.evaluate(point)


@pytest.mark.parametrize("field", [Q, prime_field(3)], ids=["Q", "F3"])
def test_operations_leave_operands_unchanged(field):
    # results may share an operand's terms, so no operation may write to them
    rng = random.Random(9)
    one = field.one()
    for _ in range(60):
        p, q = random_poly(field, rng), random_poly(field, rng)
        before = [list(p.terms.items()), list(q.terms.items())]
        c = field.from_int(rng.randint(-3, 3))
        results = [p.add(q), p.add(p.neg()), p.mul(q), p.scale(c), p.scale(one), p.neg(), p.sub(q)]
        results += [p.scale(3), p * 3]  # over F_3 an unreduced zero
        assert [list(p.terms.items()), list(q.terms.items())] == before
        assert p.scale(one) == p
        assert p.add(p.neg()).is_zero
        for r in results:
            assert field.zero() not in r.terms.values()


def test_operators_match_methods():
    rng = random.Random(6)
    p = random_poly(Q, rng)
    q = random_poly(Q, rng)
    assert p + q == p.add(q)
    assert p - q == p.sub(q)
    assert p * q == p.mul(q)
    assert -p == p.neg()


def test_mul_is_commutative_and_associative():
    rng = random.Random(7)
    for _ in range(20):
        p, q, s = (random_poly(Q, rng, nterms=3) for _ in range(3))
        assert p.mul(q) == q.mul(p)
        assert p.mul(q).mul(s) == p.mul(q.mul(s))
        assert p.mul(q.add(s)) == p.mul(q).add(p.mul(s))


def test_pow_int():
    p = x(1).add(const(1))
    cube = p.pow_int(3)
    # (x+1)^3 = x^3 + 3x^2 + 3x + 1
    assert cube.terms == {
        ((1, 3),): Fraction(1),
        ((1, 2),): Fraction(3),
        ((1, 1),): Fraction(3),
        (): Fraction(1),
    }
    assert p.pow_int(0) == const(1)
    with pytest.raises(StructureError):
        p.pow_int(-1)


def test_mul_budget():
    # (x1+1)(x2+1)...(x11+1) has 2^11 terms; a tight budget must trip
    p = const(1)
    with pytest.raises(BudgetError):
        for i in range(1, 12):
            p = p.mul(x(i).add(const(1)), budget=500)


def mixed_rational_poly(rng, nvars=4, nterms=6, max_exp=2):
    """A random polynomial whose coefficients have mixed denominators."""
    p = random_poly(Q, rng, nvars=nvars, nterms=nterms, max_exp=max_exp)
    return SparsePoly(Q, {m: c / rng.choice((1, 2, 3, 4, 6, 7, 9, 10, 12)) for m, c in p.terms.items()})


def test_mul_over_q_equals_the_fraction_reference():
    rng = random.Random(29)
    for _ in range(200):
        p, q = mixed_rational_poly(rng), mixed_rational_poly(rng)
        got, want = p.mul(q), mul_reference(p, q)
        assert got == want, (p, q)
        assert list(got.terms) == list(want.terms), (p, q)  # same insertion order
        assert all(type(c) is Fraction and c != 0 for c in got.terms.values())
    # a constant operand, a zero operand, and one term times many
    p = mixed_rational_poly(rng)
    for q in (SparsePoly.const(Q, Fraction(-5, 6)), SparsePoly.zero(Q), x(3).scale(Fraction(2, 9))):
        assert p.mul(q) == mul_reference(p, q) and q.mul(p) == mul_reference(q, p)


def test_mul_over_q_drops_the_coefficients_that_cancel():
    # (x1/2 + 2/3 x2)(x1/2 - 2/3 x2): the two x1*x2 products cancel
    p = SparsePoly(Q, {((1, 1),): Fraction(1, 2), ((2, 1),): Fraction(2, 3)})
    q = SparsePoly(Q, {((1, 1),): Fraction(1, 2), ((2, 1),): Fraction(-2, 3)})
    got = p.mul(q)
    assert got.terms == {((1, 2),): Fraction(1, 4), ((2, 2),): Fraction(-4, 9)}
    assert got == mul_reference(p, q)
    # a product of nonzero polynomials over Q is never zero, but a sum of
    # products can cancel to the zero polynomial, leaving no zero coefficient
    total = sum_of_products(Q, [(p, q), (q.scale(Fraction(-3, 5)), p.scale(Fraction(5, 3)))])
    assert total.is_zero and total.terms == {}


@pytest.mark.parametrize("field", [Q, prime_field(7)], ids=["Q", "F7"])
def test_sum_of_products_equals_the_sum_of_reference_products(field):
    rng = random.Random(37)
    for _ in range(60):
        pairs = []
        for _ in range(rng.randint(1, 5)):
            p, q = mixed_rational_poly(rng, nterms=4), mixed_rational_poly(rng, nterms=3)
            if field != Q:
                p, q = (SparsePoly(field, {m: field.from_int(c.numerator * c.denominator) for m, c in r.terms.items()}) for r in (p, q))
            pairs.append((p, q))
        want = SparsePoly.zero(field)
        for p, q in pairs:
            want = want.add(mul_reference(p, q))
        got = sum_of_products(field, pairs)
        assert got == want, pairs
        assert field.zero() not in got.terms.values()
    with pytest.raises(StructureError, match="mixed fields"):
        sum_of_products(Q, [(x(1), x(2)), (x(1), x(2, prime_field(7)))])


def test_mul_refuses_an_over_budget_product_before_any_work(monkeypatch):
    p = SparsePoly(Q, {((i, 1),): Fraction(1, i) for i in range(1, 5)})
    q = SparsePoly(Q, {((i, 1),): Fraction(i, 7) for i in range(5, 8)})

    def no_work(*args):
        raise AssertionError("product work before the budget check")

    F7 = prime_field(7)
    p7 = SparsePoly(F7, {m: F7.from_int(i) for i, m in enumerate(p.terms, 1)})
    q7 = SparsePoly(F7, {m: F7.from_int(i) for i, m in enumerate(q.terms, 1)})
    for field, a, b in ((Q, p, q), (F7, p7, q7)):
        with monkeypatch.context() as m:
            m.setattr(oabp.poly, "_cleared", no_work)
            m.setattr(oabp.poly, "mono_mul", no_work)
            with pytest.raises(BudgetError, match="^product of 4 x 3 terms exceeds term budget 11$"):
                a.mul(b, budget=11)
        assert a.mul(b, budget=12) == mul_reference(a, b), field


def test_evaluate_requires_all_variables():
    p = x(1).mul(x(2))
    with pytest.raises(StructureError):
        p.evaluate({1: Fraction(1)})


def test_derivative_product_rule():
    rng = random.Random(8)
    for _ in range(25):
        p = random_poly(Q, rng, max_exp=1)
        q = random_poly(Q, rng, max_exp=1)
        lhs = p.mul(q).derivative(1)
        rhs = p.derivative(1).mul(q).add(p.mul(q.derivative(1)))
        assert lhs == rhs


def test_derivative_drops_power():
    p = x(1).pow_int(3).scale(Fraction(2))  # 2 x^3
    assert p.derivative(1) == x(1).pow_int(2).scale(Fraction(6))
    assert p.derivative(2).is_zero


def test_compose_single_variable():
    p = x(1).pow_int(2).add(x(1)).add(const(1))  # x^2 + x + 1
    image = x(2).add(const(1))  # x -> y + 1
    got = p.compose({1: image})
    want = image.pow_int(2).add(image).add(const(1))
    assert got == want


def test_compose_matches_evaluation():
    rng = random.Random(9)
    for _ in range(15):
        p = random_poly(Q, rng, nvars=3, max_exp=1)
        images = {v: random_poly(Q, rng, nvars=2, nterms=2, max_exp=1) for v in (1, 2, 3)}
        composed = p.compose(images)
        point = {v: Fraction(rng.randint(-3, 3)) for v in (1, 2)}
        direct = p.evaluate({v: images[v].evaluate(point) for v in (1, 2, 3)})
        assert composed.evaluate(point) == direct


def test_compose_budget():
    # composing a product of 14 variables with two-term images doubles terms
    # per variable and must trip a small budget
    mono = tuple((i, 1) for i in range(1, 15))
    p = SparsePoly(Q, {mono: Fraction(1)})
    images = {i: x(i).add(const(1)) for i in range(1, 15)}
    with pytest.raises(BudgetError):
        p.compose(images, budget=1000)


def test_compose_over_prime_field():
    F = prime_field(5)
    p = SparsePoly.variable(F, 1).mul(SparsePoly.variable(F, 2))
    images = {1: SparsePoly.const(F, 2), 2: SparsePoly.variable(F, 2)}
    assert p.compose(images) == SparsePoly.variable(F, 2).scale(2)


def outcome(fn, *args):
    """fn(*args), or the text of the BudgetError that refused it."""
    try:
        return fn(*args)
    except BudgetError as exc:
        return f"BudgetError: {exc}"


def corpus_compositions(field):
    """(name, expansion, generator images) for every standard_corpus member
    over field, gated as compose_test gates it: F_3 lifts to an extension."""
    for m in standard_corpus():
        a = m.abp if field == Q else over_prime(m.abp, field)
        prog, pi = _working_program(a, m.read_bound)
        params = GeneratorParams(level_for(a.num_vars), m.read_bound, prog.field)
        gen = build_generator(params)
        yield m.name, expand(prog), {i: gen[pi.rank(i) - 1] for i in range(1, a.num_vars + 1)}


def random_rational_case(rng):
    """A polynomial with exponents up to 3 and rational coefficients, and
    images over mixed seed names whose denominators differ."""
    p = random_poly(Q, rng, nvars=4, nterms=6, max_exp=3)
    p = SparsePoly(Q, {m: c / rng.randint(1, 12) for m, c in p.terms.items()})
    seeds = ["z2", "z10", "u1", "v1", 5] + PADDED
    images = {}
    for v in p.variables():
        terms = {}
        for _ in range(rng.randint(0, 4)):
            names = sorted(rng.sample(seeds, rng.randint(0, 3)), key=var_sort_key)
            mono = tuple((s, rng.randint(1, 3)) for s in names)
            terms[mono] = Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 4, 6, 7, 9, 10)))
        images[v] = SparsePoly(Q, terms)
    return p, images


def check_unspelled_reads(got, want):
    """is_zero, num_terms and least_monomial of a composition against the
    reference composition want: compose_test reads them before its terms
    are spelled, and they must not change once terms is read."""
    assert got.is_zero == want.is_zero
    assert got.num_terms == want.num_terms
    if want.is_zero:
        with pytest.raises(ValueError):
            got.least_monomial()
    else:
        assert got.least_monomial() == min(want.terms, key=mono_sort_key)


@pytest.mark.parametrize("field", [Q, prime_field(10007), prime_field(3)], ids=["Q", "F10007", "F3"])
def test_compose_equals_the_reference_on_every_corpus_expansion(field):
    members = lifted = 0
    for name, f, images in corpus_compositions(field):
        got, want = f.compose(images), compose_reference(f, images)
        check_unspelled_reads(got, want)
        assert got == want, name
        assert list(got.terms) == list(want.terms), name  # same insertion order too
        check_unspelled_reads(got, want)  # one state: terms read, keys kept
        members += 1
        lifted += got.field != field
    assert members == 205
    assert lifted == (members if field == prime_field(3) else 0)


@pytest.mark.parametrize("field", [Q, prime_field(10007)], ids=["Q", "F10007"])
def test_generator_build_equals_a_build_on_the_reference(monkeypatch, field):
    for k, r in itertools.product((1, 2), (1, 2, 3)):
        params = GeneratorParams(k, r, field)
        got = build_generator(params)
        with monkeypatch.context() as m:
            m.setattr(SparsePoly, "compose", compose_reference)
            want = oabp.generator._build(k, r, field, params._basis_tables, DEFAULT_TERM_BUDGET)
        assert got == want, (k, r)


def test_compose_equals_the_reference_on_random_rational_images():
    rng = random.Random(19)
    for _ in range(150):
        p, images = random_rational_case(rng)
        got, want = p.compose(images), compose_reference(p, images)
        check_unspelled_reads(got, want)
        assert got == want and list(got.terms) == list(want.terms), (p, images)
    # one image with several denominators, raised to a power
    half = SparsePoly(Q, {(("z1", 1),): Fraction(1, 2), (("u1", 2),): Fraction(2, 3), (): Fraction(1, 5)})
    p = SparsePoly(Q, {((1, 3), (2, 1)): Fraction(7, 4), ((1, 1),): Fraction(-3)})
    images = {1: half, 2: SparsePoly.variable(Q, "v1").scale(Fraction(1, 9))}
    assert p.compose(images) == compose_reference(p, images)


def test_least_monomial_breaks_degree_ties_by_variables_not_by_packed_keys():
    # every term has degree 2; z1*u1 is least, though its packed key, which
    # sets the u1 field above every z field, exceeds that of z2^2
    p = x(1).add(x(2)).add(x(3))
    images = {1: x("z2").pow_int(2), 2: x("z1").mul(x("u1")), 3: x("z2").mul(x("v1"))}
    got, want = p.compose(images), compose_reference(p, images)
    check_unspelled_reads(got, want)
    assert got.least_monomial() == (("z1", 1), ("u1", 1))
    assert got == want and list(got.terms) == list(want.terms)
    assert got.least_monomial() == (("z1", 1), ("u1", 1))  # and once spelled


def test_a_composition_to_zero_has_no_least_monomial():
    p = x(1).sub(x(2))
    images = {1: x("z1").add(x("u1")), 2: x("u1").add(x("z1"))}
    got, want = p.compose(images), compose_reference(p, images)
    check_unspelled_reads(got, want)
    assert got.is_zero and got == want
    for zero in (got, SparsePoly.zero(Q)):  # spelled and plain alike
        with pytest.raises(ValueError):
            zero.least_monomial()


# a ladder of term budgets, from refusing the first product to none at all
BUDGETS = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 987, 1597, 2584, 4181, 10**6)


def test_compose_refuses_at_the_product_the_reference_refuses_at():
    rng = random.Random(23)
    cases = [random_rational_case(rng) for _ in range(30)]
    for field in (Q, prime_field(3)):
        cases += [(f, images) for _, f, images in itertools.islice(corpus_compositions(field), 0, None, 20)]
    # many terms of two-term products: from budget 2 on, only the running sum trips
    line = SparsePoly(Q, {((i, 1),): Fraction(i) for i in range(1, 40)})
    cases.append((line, {i: x("z1").pow_int(i).add(x("u1")) for i in range(1, 40)}))
    seen = set()
    for p, images in cases:
        for budget in BUDGETS:
            got = outcome(SparsePoly.compose, p, images, budget)
            assert got == outcome(compose_reference, p, images, budget), (p, budget)
            seen.add(got.split()[1] if isinstance(got, str) else "done")
    assert seen == {"product", "composition", "done"}


def test_generator_build_refuses_where_a_reference_build_refuses(monkeypatch):
    for r in (1, 2):
        params = GeneratorParams(2, r, Q)
        build = (oabp.generator._build, 2, r, Q, params._basis_tables)
        for budget in BUDGETS:
            got = outcome(*build, budget)
            with monkeypatch.context() as m:
                m.setattr(SparsePoly, "compose", compose_reference)
                want = outcome(*build, budget)
            assert got == want, (r, budget)


def test_var_sort_key_orders_ints_before_seed_names():
    names = ["z2", "u1", "v1", "y3", 2, 1, "z10"]
    ordered = sorted(names, key=var_sort_key)
    assert ordered == [1, 2, "z2", "z10", "u1", "v1", "y3"]


# names that differ only in zero padding: each must still be its own variable
PADDED = ["z", "z0", "z01", "z1"]
POOL = [1, 2, 3, 7, 10, "z2", "z10", "u1", "u2", "v1", "v3", "y1", "w2", "w", "q1"] + PADDED


def is_canonical(mono) -> bool:
    """Variables strictly increase under var_sort_key, exponents >= 1."""
    keys = [var_sort_key(v) for v, _ in mono]
    return all(a < b for a, b in zip(keys, keys[1:])) and all(e >= 1 for _, e in mono)


def random_mono(rng, pool=POOL, most=5):
    vs = sorted(rng.sample(pool, rng.randint(0, most)), key=var_sort_key)
    return tuple((v, rng.randint(1, 3)) for v in vs)


def test_padded_seed_names_are_distinct_variables():
    assert len({var_sort_key(v) for v in PADDED}) == len(PADDED)
    assert sorted(PADDED, key=var_sort_key) == ["z", "z0", "z01", "z1"]
    a = SparsePoly.variable(Q, "z")
    b = SparsePoly.variable(Q, "z0")
    assert a.mul(b).sub(b.mul(a)).is_zero
    c = SparsePoly.variable(Q, "z01")
    d = SparsePoly.variable(Q, "z1")
    assert c.mul(d).sub(d.mul(c)).is_zero


def test_mono_mul_matches_the_dict_and_sort_reference():
    rng = random.Random(11)
    small = ["z", "z0", "z01", 1, "u1"]  # a small pool makes shared variables common
    for t in range(3000):
        pool = small if t % 3 == 0 else POOL
        m1, m2 = random_mono(rng, pool), random_mono(rng, pool)
        got = mono_mul(m1, m2)
        assert got == mono_mul_reference(m1, m2), (m1, m2)
        assert got == mono_mul(m2, m1), (m1, m2)
        assert is_canonical(got), got
    one = (("z", 2), ("z0", 1))
    assert mono_mul((), one) == one and mono_mul(one, ()) == one
    assert mono_mul(one, one) == (("z", 4), ("z0", 2))


def test_every_constructor_yields_canonical_monomials():
    for k, r in itertools.product((1, 2), repeat=2):
        gen = build_generator(GeneratorParams(k, r, Q))
        assert all(is_canonical(m) for p in gen for m in p.terms), (k, r)
    exps = {"3": 1, "1": 2, "z": 1, "z0": 1, "z01": 2, "u1": 1}
    read = set()
    for order in itertools.permutations(exps):
        term = {"coeff": "1", "exps": {key: exps[key] for key in order}}
        p = poly_from_json({"field": {"kind": "rational"}, "terms": [term]})
        (mono,) = p.terms
        assert is_canonical(mono), mono
        read.add(mono)
    assert len(read) == 1
    rng = random.Random(12)
    for _ in range(40):
        terms = {random_mono(rng): Q.from_int(rng.randint(1, 5)) for _ in range(5)}
        p = SparsePoly(Q, terms)
        some = rng.sample(POOL, 4)
        parts = [
            p.derivative(some[0]),
            p.compose({v: SparsePoly(Q, {random_mono(rng, PADDED, 2): Q.one()}) for v in p.variables()}),
        ]
        for q in parts:
            assert all(is_canonical(m) for m in q.terms), q


def test_mono_sort_key_graded():
    monos = [((2, 1),), ((1, 2),), ((1, 1), (2, 1)), ()]
    ordered = sorted(monos, key=mono_sort_key)
    # graded: the constant first, the single degree-1 monomial next, then the
    # two degree-2 monomials in variable order
    assert ordered == [(), ((2, 1),), ((1, 1), (2, 1)), ((1, 2),)]
    assert mono_sort_key(()) < mono_sort_key(((1, 1),))
    assert mono_sort_key(((1, 1),)) < mono_sort_key(((1, 2),))


def test_is_multilinear():
    assert x(1).mul(x(2)).is_multilinear()
    assert not x(1).pow_int(2).is_multilinear()


def test_str_is_deterministic():
    p = x(1).mul(x(2)).add(x(1).scale(Fraction(-1))).add(const(3))
    assert str(p) == "3 + -1*x1 + x1*x2"
    assert str(SparsePoly.zero(Q)) == "0"


def test_field_mismatch_rejected():
    p = x(1)
    q = SparsePoly.variable(prime_field(5), 1)
    with pytest.raises(StructureError):
        p.add(q)


def test_from_pairs_accumulates():
    pairs = [(((1, 1),), Fraction(2)), (((1, 1),), Fraction(3))]
    assert SparsePoly.from_pairs(Q, pairs) == x(1).scale(Fraction(5))
