"""The recursive hitting-set map: closed forms, evaluation, degree bounds."""

import math
import random
from fractions import Fraction

import pytest

from oabp.errors import FieldError, StructureError
from oabp.fields import enumerate_points, extension_field, prime_field, rationals
from oabp.generator import (
    GeneratorParams,
    audit_component_degrees,
    build_generator,
    degree_bounds,
    eval_generator,
    points_needed,
    seed_count,
    seed_degree_bounds,
    seed_names,
    selector_map,
    shift_map,
    y_alias,
    z_count,
)
from oabp.poly import SparsePoly

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


def test_y_alias():
    assert y_alias(1, 1, 1) == "z2"
    assert y_alias(1, 1, 2) == "z3"
    assert y_alias(2, 1, 1) == "z4"
    assert y_alias(2, 2, 1) == "z6"


# frozen closed forms for level 1 on interpolation nodes (0, 1):
# first output  z1 + u1*(1 - v1)
# second output z1 + ... + z_{1+r} + u1*v1
@pytest.mark.parametrize("r", [1, 2, 3])
def test_level_one_closed_form(r):
    pm = build_generator(GeneratorParams.create(1, r, Q))
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
    assert len(pm.outputs) == 2
    assert pm.outputs[0] == first
    assert pm.outputs[1] == second


def test_level_one_hits_every_pair():
    # the witness recipe: z1 = a, z2 = b - a, everything else 0 maps to (a, b)
    rng = random.Random(2)
    params = GeneratorParams.create(1, 1, Q)
    for _ in range(20):
        a, b = Fraction(rng.randint(-9, 9)), Fraction(rng.randint(-9, 9))
        seed = (a, b - a, Fraction(0), Fraction(0), Fraction(0))
        assert eval_generator(params, seed) == (a, b)


@pytest.mark.parametrize("k,r", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_eval_matches_symbolic(k, r):
    for field in (Q, prime_field(101)):
        params = GeneratorParams.create(k, r, field)
        pm = build_generator(params)
        names = seed_names(k, r)
        rng = random.Random(31 * k + r)
        for _ in range(15):
            if field is Q:
                seed = tuple(Fraction(rng.randint(-6, 6)) for _ in names)
            else:
                seed = tuple(rng.randrange(101) for _ in names)
            want = tuple(
                comp.evaluate(dict(zip(names, seed))) for comp in pm.outputs
            )
            assert eval_generator(params, seed) == want


def test_eval_on_custom_nodes_matches_symbolic():
    # barycentric tables are cached per point tuple; reversed and shuffled
    # node sets must each get their own
    rng = random.Random(5)
    for field, k, r in ((Q, 2, 2), (extension_field(3, 2), 2, 1)):
        canonical = enumerate_points(field, points_needed(k, r))
        for points in (canonical[::-1], tuple(rng.sample(canonical, len(canonical)))):
            params = GeneratorParams.create(k, r, field, points)
            pm = build_generator(params)
            names = seed_names(k, r)
            for _ in range(5):
                seed = tuple(rng.choice(canonical) for _ in names)
                want = tuple(comp.evaluate(dict(zip(names, seed))) for comp in pm.outputs)
                assert eval_generator(params, seed) == want


def test_output_count_doubles_per_level():
    for k in (0, 1, 2, 3):
        pm = build_generator(GeneratorParams.create(k, 1, Q))
        assert len(pm.outputs) == 2**k


def test_level_zero_is_the_single_seed():
    pm = build_generator(GeneratorParams.create(0, 1, Q))
    assert pm.outputs[0] == SparsePoly(Q, {(("z1", 1),): Fraction(1)})


def test_self_similarity():
    # with the selector arm off (u_k = 0) and the level-k translation seeds
    # zero, both halves reproduce the level-(k-1) map
    for k, r in ((1, 1), (2, 1), (2, 2)):
        params = GeneratorParams.create(k, r, Q)
        inner = GeneratorParams.create(k - 1, r, Q)
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
    params = GeneratorParams.create(k, 1, Q)
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


def test_shift_map_concentrates_on_one_component():
    # with the control coordinate at interpolation node j-1, the translation
    # hits component j alone, by the full shift amount
    points = enumerate_points(Q, seed_count(1, 1))
    sm = shift_map(1, 1, Q, points)
    assert sm.n_outputs == seed_count(1, 1)
    amount = Fraction(7)
    for j in range(seed_count(1, 1)):
        assign = {"y1": amount, "y2": points[j]}
        values = [comp.evaluate(assign) for comp in sm.outputs]
        assert values[j] == amount
        assert all(v == 0 for i, v in enumerate(values) if i != j)


def test_selector_map_is_lagrange_scaled():
    points = enumerate_points(Q, 4)
    sel = selector_map(2, Q, points)
    u = Fraction(3)
    for j in range(4):
        assign = {"u2": u, "v2": points[j]}
        values = [comp.evaluate(assign) for comp in sel.outputs]
        assert values == [u if i == j else Fraction(0) for i in range(4)]


def test_degree_bounds_frozen():
    assert degree_bounds(1, 1).component_bound == 1
    assert degree_bounds(1, 1).composition_bound == 2
    assert degree_bounds(2, 1).component_bound == 20
    assert degree_bounds(2, 1).composition_bound == 80
    assert degree_bounds(2, 2).component_bound == 42
    assert degree_bounds(3, 1).component_bound == 1440
    assert degree_bounds(3, 2).component_bound == 6552


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
            pm = build_generator(GeneratorParams.create(k, r, field))
            for n in range(2 ** (k - 1) + 1, 2**k + 1):
                bound = seed_degree_bounds(k, r, n)
                exact = tuple(
                    sum(c.individual_degrees().get(s, 0) for c in pm.outputs[:n])
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


def test_degree_audit_exact_levels():
    for k, r in ((1, 1), (1, 2), (2, 1), (2, 2)):
        audit = audit_component_degrees(GeneratorParams.create(k, r, Q))
        assert audit.exact
        assert audit.max_degree() <= degree_bounds(k, r).component_bound
    # frozen exact measurements
    assert audit_component_degrees(GeneratorParams.create(2, 1, Q)).max_degree() == 8
    assert audit_component_degrees(GeneratorParams.create(2, 2, Q)).max_degree() == 12


def test_degree_audit_level_three_is_sound_bound():
    for r in (1, 2):
        audit = audit_component_degrees(GeneratorParams.create(3, r, Q))
        assert not audit.exact
        assert audit.max_degree() <= degree_bounds(3, r).component_bound


def test_degree_audit_rejects_deeper_levels():
    with pytest.raises(StructureError):
        audit_component_degrees(GeneratorParams.create(4, 1, Q))


def test_params_validation():
    with pytest.raises(StructureError):
        GeneratorParams.create(-1, 1, Q)
    with pytest.raises(StructureError):
        GeneratorParams.create(1, 0, Q)
    pts = enumerate_points(Q, seed_count(1, 1))
    with pytest.raises(FieldError):
        GeneratorParams.create(1, 1, Q, (pts[0],) * len(pts))
    with pytest.raises(FieldError):
        GeneratorParams.create(1, 1, Q, pts[:3])


def test_build_cache_returns_same_object():
    a = build_generator(GeneratorParams.create(2, 1, Q))
    b = build_generator(GeneratorParams.create(2, 1, Q))
    assert a is b
