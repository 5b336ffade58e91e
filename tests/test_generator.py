"""The recursive hitting-set map: closed forms, evaluation, degree bounds."""

import itertools
import math
import random
from fractions import Fraction

import pytest

from oabp.errors import BudgetError, FieldError, StructureError
from oabp.fields import enumerate_points, extension_field, prime_field, rationals
from oabp.generator import (
    GeneratorParams,
    _barycentric,
    _basis_values,
    build_generator,
    eval_generator,
    points_needed,
    seed_count,
    seed_degree_bounds,
    seed_names,
    z_count,
)
from oabp.pit import _grid_sides
from oabp.poly import SparsePoly
from reference import eval_generator_reference

Q = rationals()


def test_seed_counting():
    assert [z_count(k, 1) for k in (0, 1, 2, 3)] == [1, 3, 5, 7]
    assert [z_count(k, 2) for k in (0, 1, 2, 3)] == [1, 5, 9, 13]
    assert seed_count(1, 1) == 5
    assert seed_count(2, 1) == 9
    assert seed_count(2, 2) == 13
    assert seed_names(1, 1) == ("z1", "z2", "z3", "u1", "v1")
    assert seed_names(2, 1) == ("z1", "z2", "z3", "z4", "z5", "u1", "u2", "v1", "v2")


def test_points_needed():
    assert points_needed(1, 1) == 5
    assert points_needed(2, 1) == 9
    assert points_needed(3, 1) == 13
    # 2^k dominates once the selector needs more interpolation nodes
    assert points_needed(4, 1) == max(seed_count(4, 1), 16)


# frozen closed forms for level 1 on interpolation nodes (0, 1):
# first output  z1 + u1*(1 - v1)
# second output z1 + ... + z_{1+r} + u1*v1
@pytest.mark.parametrize("r", [1, 2, 3])
def test_level_one_closed_form(r):
    gen = build_generator(GeneratorParams(1, r, Q))
    one = Fraction(1)
    first = SparsePoly(
        Q,
        {
            (("z1", 1),): one,
            (("u1", 1),): one,
            (("u1", 1), ("v1", 1)): -one,
        },
    )
    second_terms = {((f"z{i}", 1),): one for i in range(1, r + 2)}
    second_terms[(("u1", 1), ("v1", 1))] = one
    second = SparsePoly(Q, second_terms)
    assert len(gen) == 2
    assert gen[0] == first
    assert gen[1] == second


def test_level_one_hits_every_pair():
    # the witness recipe: z1 = a, z2 = b - a, everything else 0 maps to (a, b)
    rng = random.Random(2)
    params = GeneratorParams(1, 1, Q)
    for _ in range(20):
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        seed = (a, b - a, Fraction(0), Fraction(0), Fraction(0))
        assert eval_generator(params, seed) == (a, b)


@pytest.mark.parametrize("k,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_eval_matches_symbolic(k, r):
    for field in (Q, prime_field(101)):
        params = GeneratorParams(k, r, field)
        gen = build_generator(params)
        names = seed_names(k, r)
        rng = random.Random(31 * k + r)
        for _ in range(15):
            if field is Q:
                seed = tuple(Fraction(rng.randint(-6, 6)) for _ in names)
            else:
                seed = tuple(rng.randrange(101) for _ in names)
            want = tuple(
                comp.evaluate(dict(zip(names, seed))) for comp in gen
            )
            assert eval_generator(params, seed) == want


def test_eval_matches_symbolic_over_an_extension():
    # F_9 holds exactly the 9 nodes the level-2, read-1 map needs
    rng = random.Random(5)
    field = extension_field(3, 2)
    params = GeneratorParams(2, 1, field)
    assert params.points == enumerate_points(field, points_needed(2, 1))
    gen = build_generator(params)
    names = seed_names(2, 1)
    for _ in range(10):
        seed = tuple(rng.choice(params.points) for _ in names)
        want = tuple(comp.evaluate(dict(zip(names, seed))) for comp in gen)
        assert eval_generator(params, seed) == want


def test_output_count_doubles_per_level():
    for k in (0, 1, 2, 3):
        gen = build_generator(GeneratorParams(k, 1, Q))
        assert len(gen) == 2**k


def test_level_zero_is_the_single_seed():
    gen = build_generator(GeneratorParams(0, 1, Q))
    assert gen[0] == SparsePoly(Q, {(("z1", 1),): Fraction(1)})


def test_self_similarity():
    # with the selector arm off (u_k = 0) and the level-k translation seeds
    # zero, both halves reproduce the level-(k-1) map
    for k, r in ((1, 1), (2, 1), (2, 2)):
        params = GeneratorParams(k, r, Q)
        inner = GeneratorParams(k - 1, r, Q)
        names = seed_names(k, r)
        inner_names = seed_names(k - 1, r)
        rng = random.Random(7 * k + r)
        for _ in range(10):
            inner_seed = tuple(Fraction(rng.randint(-5, 5)) for _ in inner_names)
            assign = dict.fromkeys(names, Fraction(0))
            assign.update(zip(inner_names, inner_seed))
            full = eval_generator(params, tuple(assign[n] for n in names))
            half = eval_generator(inner, inner_seed)
            assert full == half + half


def test_selector_picks_one_output():
    # zero seeds kill both halves; v at interpolation node j-1 routes u to
    # output j alone
    k = 2
    params = GeneratorParams(k, 1, Q)
    names = seed_names(k, 1)
    nodes = enumerate_points(Q, 4)
    u = Fraction(9)
    for j in range(4):
        assign = dict.fromkeys(names, Fraction(0))
        assign["u2"] = u
        assign["v2"] = nodes[j]
        out = eval_generator(params, tuple(assign[n] for n in names))
        assert out[j] == u
        assert all(out[i] == 0 for i in range(4) if i != j)


def _symbolic_basis(nodes, var):
    # the Lagrange basis over nodes as polynomials in var, the way
    # build_generator forms its shift images and slot tags
    table = tuple(
        tuple(SparsePoly.const(Q, c) for c in part) for part in _barycentric(Q, nodes)
    )
    return _basis_values(SparsePoly, table, SparsePoly.variable(Q, var))


def test_shift_map_concentrates_on_one_component():
    # with the control coordinate at interpolation node j-1, the translation
    # y1 * H_j(y2) hits component j alone, by the full shift amount
    points = enumerate_points(Q, seed_count(1, 1))
    y1 = SparsePoly.variable(Q, "y1")
    shift = [y1.mul(h) for h in _symbolic_basis(points, "y2")]
    assert len(shift) == seed_count(1, 1)
    amount = Fraction(7)
    for j in range(seed_count(1, 1)):
        assign = {"y1": amount, "y2": points[j]}
        values = [comp.evaluate(assign) for comp in shift]
        assert values[j] == amount
        assert all(v == 0 for i, v in enumerate(values) if i != j)


def test_selector_map_is_lagrange_scaled():
    points = enumerate_points(Q, 4)
    u2 = SparsePoly.variable(Q, "u2")
    sel = [u2.mul(tag) for tag in _symbolic_basis(points, "v2")]
    u = Fraction(3)
    for j in range(4):
        assign = {"u2": u, "v2": points[j]}
        values = [comp.evaluate(assign) for comp in sel]
        assert values == [u if i == j else Fraction(0) for i in range(4)]


def test_basis_values_match_direct_lagrange_product():
    # the one Lagrange evaluator behind both eval_generator and
    # build_generator, against prod_{j != i} (x - a_j) / (a_i - a_j)
    F9 = extension_field(3, 2)
    for field, extra in (
        (Q, (Fraction(7, 3), Fraction(-50))),
        (prime_field(10007), (10006, 4321)),
        (F9, tuple(enumerate_points(F9, 9)[6:])),
    ):
        nodes = enumerate_points(field, 6)
        for m in (1, 2, 6):
            table = _barycentric(field, nodes[:m])
            for x in nodes + extra:
                want = []
                for i, a_i in enumerate(nodes[:m]):
                    value = field.one()
                    for j, a_j in enumerate(nodes[:m]):
                        if j != i:
                            value = field.mul(
                                value, field.div(field.sub(x, a_j), field.sub(a_i, a_j))
                            )
                    want.append(value)
                assert _basis_values(field, table, x) == want, (field, m, x)


def test_seed_degree_bounds_cover_exact_degrees():
    # d_s >= sum_{j <= n} deg_s(G_j) over every field, with equality over Q;
    # F_9 has too few points for the level-2, read-2 map
    F9 = extension_field(3, 2)
    totals = {}
    for k, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        names = seed_names(k, r)
        for field in (Q, prime_field(10007), F9):
            if field.size() is not None and field.size() < points_needed(k, r):
                assert (field, k, r) == (F9, 2, 2)
                continue
            gen = build_generator(GeneratorParams(k, r, field))
            for n in range(2 ** (k - 1) + 1, 2**k + 1):
                bound = seed_degree_bounds(k, r, n)
                exact = tuple(
                    sum(c.individual_degrees().get(s, 0) for c in gen[:n])
                    for s in names
                )
                assert all(e <= d for e, d in zip(exact, bound)), (field, k, r, n)
                if field == Q:
                    assert exact == bound, (k, r, n)
                    totals[k, r, n] = math.prod(d + 1 for d in bound)
    assert totals == {
        (1, 1, 2): 54,
        (1, 2, 2): 108,
        (2, 1, 3): 138240,
        (2, 1, 4): 2071875,
        (2, 2, 3): 15575040,
        (2, 2, 4): 1142578125,
    }
    with pytest.raises(StructureError):
        seed_degree_bounds(2, 1, 5)


def test_selector_seed_bounds_are_the_variable_count():
    # every slot carries each u_j once, so the hitset grid holds at least
    # (n+1)^k points; seed_grid_size refuses on that floor first
    for k in range(1, 8):
        for r in (1, 2, 3):
            us = [i for i, name in enumerate(seed_names(k, r)) if name.startswith("u")]
            assert len(us) == k
            for n in range(1, 2**k + 1):
                bounds = seed_degree_bounds(k, r, n)
                assert [bounds[i] for i in us] == [n] * k, (k, r, n)


def test_params_validation():
    with pytest.raises(StructureError):
        GeneratorParams(-1, 1, Q)
    with pytest.raises(StructureError):
        GeneratorParams(1, 0, Q)
    # the level-2, read-1 map needs 9 distinct nodes; F_7 has 7
    with pytest.raises(FieldError, match="requested 9 distinct points"):
        GeneratorParams(2, 1, prime_field(7))
    # the nodes are always the field's first points_needed(k, r) points
    with pytest.raises(TypeError):
        GeneratorParams(1, 1, Q, (0, 1, 2))
    assert GeneratorParams(1, 1, Q).points == enumerate_points(Q, points_needed(1, 1))


def test_build_cache_returns_same_object():
    a = build_generator(GeneratorParams(2, 1, Q))
    b = build_generator(GeneratorParams(2, 1, Q))
    assert a is b
    # a map cached under the default budget does not let a smaller one through
    with pytest.raises(BudgetError, match="term budget 10$"):
        build_generator(GeneratorParams(2, 1, Q), budget=10)


def _grid_point(sides, points, index):
    """Grid point number index in itertools.product order, last seed fastest."""
    out = []
    for side in reversed(sides):
        index, j = divmod(index, side)
        out.append(points[j])
    return tuple(reversed(out))


@pytest.mark.parametrize("r", [1, 2])
@pytest.mark.parametrize(
    "field", [Q, prime_field(10007), extension_field(3, 2)], ids=["Q", "F10007", "F9"]
)
def test_eval_reuses_half_images_only_while_their_seeds_stand(field, r):
    # one params object for the whole n = 2 grid, so every node's entry is
    # reused while u1, v1 move and replaced when a z-seed does
    params = GeneratorParams(1, r, field)
    sides = _grid_sides(2, r)
    points = enumerate_points(field, max(sides))
    for seed in itertools.product(*(points[:side] for side in sides)):
        assert eval_generator(params, seed) == eval_generator_reference(params, seed)


def test_eval_reuse_on_a_window_and_a_shuffled_sample_of_the_n3_grid():
    field = prime_field(10007)
    params = GeneratorParams(2, 1, field)
    sides = _grid_sides(3, 1)
    points = enumerate_points(field, max(sides))
    total = math.prod(sides)
    window = range(total // 2 - 600, total // 2 + 600)
    sample = random.Random(11).sample(range(total), 600)
    for index in [*window, *sample]:
        seed = _grid_point(sides, points, index)
        assert eval_generator(params, seed) == eval_generator_reference(params, seed)


@pytest.mark.parametrize("field", [Q, prime_field(10007)], ids=["Q", "F10007"])
def test_eval_reuse_on_random_assignments_at_level_three(field):
    # each step redraws a random subset of the seeds, so entries at every
    # depth are sometimes kept and sometimes replaced
    rng = random.Random(3)
    params = GeneratorParams(3, 1, field)
    draw = lambda: field.element_at(rng.randrange(20))
    seed = [draw() for _ in seed_names(3, 1)]
    for _ in range(200):
        for s in rng.sample(range(len(seed)), rng.randint(1, len(seed))):
            seed[s] = draw()
        assert eval_generator(params, seed) == eval_generator_reference(params, seed)
