"""Program structure: validation, order, obliviousness, evaluation, expand."""

import random
from fractions import Fraction

import pytest

from oabp.abp import (
    Abp,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    _layers,
    _valid_layers,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    infer_order,
    lift_constants,
    make_abp,
    prune,
    restrict,
    stats,
    validate,
    zero_abp,
)
from oabp.corpus import standard_corpus
from oabp.errors import BudgetError, StructureError
from oabp.fields import extension_field, prime_field, rationals
from oabp.pit import compose_test
from oabp.poly import SparsePoly
from oabp.transforms import cut_decompose, derivative_abp, obliviate
from reference import renamed_reversed

Q = rationals()


def two_path() -> Abp:
    """x1*x2 + 3*x2 as a three-level program."""
    return make_abp(
        Q,
        2,
        [["s"], ["a", "b"], ["t"]],
        [
            ("s", "a", VarLabel(1)),
            ("s", "b", ConstLabel(Fraction(3))),
            ("a", "t", VarLabel(2)),
            ("b", "t", VarLabel(2)),
        ],
    )


# -- validation ---------------------------------------------------------------


def test_valid_program_has_no_problems():
    assert validate(two_path()) == []


def unknown_node() -> Abp:
    return make_abp(Q, 1, [["s"], ["t"]], [("s", "ghost", VarLabel(1))])


def level_skip() -> Abp:
    return Abp(
        Q,
        1,
        (("s",), ("m",), ("t",)),
        (Edge("s", "t", VarLabel(1)), Edge("s", "m", ConstLabel(Fraction(1))), Edge("m", "t", ConstLabel(Fraction(1)))),
        None,
    )


def bad_variable_index() -> Abp:
    return make_abp(Q, 1, [["s"], ["t"]], [("s", "t", VarLabel(2))])


def duplicate_node_and_empty_level() -> Abp:
    return Abp(Q, 1, (("s",), (), ("s",)), (), None)


def multi_node_endpoints() -> Abp:
    return Abp(Q, 1, (("s", "s2"), ("t",)), (Edge("s", "t", VarLabel(1)),), None)


def foreign_constant() -> Abp:
    return make_abp(Q, 1, [["s"], ["t"]], [("s", "t", ConstLabel(0.5))])


def order_arity() -> Abp:
    return Abp(Q, 2, (("s",), ("t",)), (Edge("s", "t", VarLabel(1)),), Permutation.identity(3))


def test_validate_flags_unknown_node():
    assert any("unknown node" in p for p in validate(unknown_node()))


def test_validate_flags_level_skip():
    assert any("spans levels" in p for p in validate(level_skip()))


def test_validate_flags_bad_variable_index():
    assert any("num_vars" in p for p in validate(bad_variable_index()))


def test_validate_flags_duplicate_node_and_empty_level():
    problems = validate(duplicate_node_and_empty_level())
    assert any("empty" in p for p in problems)
    assert any("appears in levels" in p for p in problems)


def test_validate_flags_multi_node_endpoints():
    assert any("source level" in p for p in validate(multi_node_endpoints()))


def test_validate_flags_foreign_constant():
    assert any("not a field element" in p for p in validate(foreign_constant()))


def test_validate_flags_order_arity():
    assert any("declared order" in p for p in validate(order_arity()))


def one_level() -> Abp:
    return Abp(Q, 1, (("s",),), (), None)


def two_sinks() -> Abp:
    return Abp(Q, 1, (("s",), ("t", "t2")), (Edge("s", "t", VarLabel(1)),), None)


def unknown_label_type() -> Abp:
    return Abp(Q, 1, (("s",), ("t",)), (Edge("s", "t", "x1"),), None)


def empty_level() -> Abp:
    return Abp(Q, 1, (("s",), (), ("t",)), (), None)


def duplicate_node() -> Abp:
    return Abp(Q, 1, (("s",), ("m",), ("s",)), (), None)


def variable_index_zero() -> Abp:
    return make_abp(Q, 1, [["s"], ["t"]], [("s", "t", VarLabel(0))])


# every program the test_validate_flags_* tests use, and one per problem
# that none of them has alone
INVALID_PROGRAMS = [
    unknown_node,
    level_skip,
    bad_variable_index,
    duplicate_node_and_empty_level,
    multi_node_endpoints,
    foreign_constant,
    order_arity,
    one_level,
    two_sinks,
    unknown_label_type,
    empty_level,
    duplicate_node,
    variable_index_zero,
]


@pytest.mark.parametrize("build", INVALID_PROGRAMS)
def test_checked_grouping_refuses_with_validate_problems(build):
    a = build()
    problems = validate(a)
    assert problems
    want = "invalid program: " + "; ".join(problems)
    refusers = (
        _valid_layers,
        obliviate,
        lambda a: derivative_abp(a, 1),
        lambda a: cut_decompose(a, 1),
        lambda a: compose_test(a, 1),
    )
    for refuse in refusers:
        with pytest.raises(StructureError) as got:
            refuse(a)
        assert str(got.value) == want


def test_checked_grouping_matches_unchecked_on_valid_programs():
    for member in standard_corpus()[::3]:
        for a in (member.abp, renamed_reversed(member.abp), obliviate(member.abp)):
            assert validate(a) == []
            assert _valid_layers(a) == _layers(a), member.name


# -- permutations -------------------------------------------------------------


def test_permutation_round_trip():
    pi = Permutation.from_sequence([2, 4, 1, 3, 5])
    assert pi.variable_sequence() == (2, 4, 1, 3, 5)
    assert pi.image == (3, 1, 4, 2, 5)
    assert pi.rank(2) == 1 and pi.at_rank(1) == 2
    assert Permutation(pi.image) == pi


def test_permutation_rejects_non_bijections():
    with pytest.raises(StructureError):
        Permutation([1, 1, 2])
    with pytest.raises(StructureError):
        Permutation.from_sequence([1, 3])
    with pytest.raises(StructureError):
        Permutation.from_sequence([0, 1])


# -- order and obliviousness --------------------------------------------------


def test_check_order_identity():
    a = two_path()
    assert check_order(a, Permutation.identity(2))
    assert not check_order(a, Permutation.from_sequence([2, 1]))


def test_check_order_branching_paths():
    # x2 then x1 on one branch violates the identity order even though the
    # other branch is fine
    a = make_abp(
        Q,
        2,
        [["s"], ["a", "b"], ["t"]],
        [
            ("s", "a", VarLabel(1)),
            ("a", "t", VarLabel(2)),
            ("s", "b", VarLabel(2)),
            ("b", "t", VarLabel(1)),
        ],
    )
    assert not check_order(a, Permutation.identity(2))
    assert not check_order(a, Permutation.from_sequence([2, 1]))
    assert infer_order(a) is None


def test_check_order_rejects_repeated_variable_on_path():
    a = make_abp(
        Q, 1, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(1))]
    )
    assert not check_order(a, Permutation.identity(1))


def test_infer_order_on_shuffled_corpus():
    for member in standard_corpus()[:40]:
        bare = Abp(
            member.abp.field,
            member.abp.num_vars,
            member.abp.levels,
            member.abp.edges,
            None,
        )
        pi = infer_order(bare)
        assert pi is not None, member.name
        assert check_order(bare, pi), member.name


def test_check_oblivious():
    a = two_path()
    rep = check_oblivious(a)
    assert rep.ok
    assert rep.layer_vars == (1, 2)
    mixed = make_abp(
        Q,
        2,
        [["s"], ["a", "b"], ["t"]],
        [
            ("s", "a", VarLabel(1)),
            ("s", "b", VarLabel(2)),
            ("a", "t", ConstLabel(Fraction(1))),
            ("b", "t", ConstLabel(Fraction(1))),
        ],
    )
    rep2 = check_oblivious(mixed)
    assert not rep2.ok
    assert "mixes" in rep2.problem


# -- evaluation and expansion -------------------------------------------------


def test_evaluate_two_path():
    a = two_path()
    assert evaluate(a, (Fraction(2), Fraction(5))) == 2 * 5 + 3 * 5
    assert evaluate(a, (Fraction(0), Fraction(0))) == 0


def test_evaluate_arity_check():
    with pytest.raises(StructureError):
        evaluate(two_path(), (Fraction(1),))


def test_layer_walks_reject_an_edge_that_skips_a_level():
    a = make_abp(Q, 1, [["s"], ["m"], ["t"]], [("s", "t", VarLabel(1))])
    for walk in (lambda: evaluate(a, (Fraction(1),)), lambda: expand(a), lambda: prune(a)):
        with pytest.raises(StructureError, match="skips or leaves the levels"):
            walk()


def test_expand_two_path():
    p = expand(two_path())
    x1 = SparsePoly.variable(Q, 1)
    x2 = SparsePoly.variable(Q, 2)
    assert p == x1.mul(x2).add(x2.scale(Fraction(3)))


def test_expand_matches_evaluate_on_corpus():
    rng = random.Random(17)
    for member in standard_corpus()[:30]:
        a = member.abp
        p = expand(a)
        for _ in range(3):
            point = tuple(Fraction(rng.randint(-3, 3)) for _ in range(a.num_vars))
            assert p.evaluate(dict(enumerate(point, start=1))) == evaluate(a, point)


def test_expand_budget():
    # a 12-layer program of (x_i + 1) factors blows a small term budget
    n = 12
    levels = [["s"]] + [[f"m{i}"] for i in range(1, n)] + [["t"]]
    names = ["s"] + [f"m{i}" for i in range(1, n)] + ["t"]
    edges = []
    for i in range(n):
        edges.append((names[i], names[i + 1], VarLabel(i + 1)))
        edges.append((names[i], names[i + 1], ConstLabel(Fraction(1))))
    a = make_abp(Q, n, levels, edges)
    with pytest.raises(BudgetError):
        expand(a, budget=100)


def test_evaluate_over_extension():
    F8 = extension_field(2, 3)
    a = make_abp(
        F8, 2, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(2))]
    )
    x = (0, 1, 0)
    assert evaluate(a, (x, x)) == F8.mul(x, x)


# -- restrict, prune, lift ----------------------------------------------------


def test_restrict_matches_substitution():
    a = two_path()
    b = restrict(a, {1: Fraction(4)})
    assert expand(b) == expand(a).substitute({1: Fraction(4)})


def test_restrict_to_zero_removes_paths():
    a = make_abp(Q, 2, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(2))])
    b = restrict(a, {1: Fraction(0)})
    assert expand(b).is_zero


def test_prune_drops_dead_branches():
    a = make_abp(
        Q,
        1,
        [["s"], ["alive", "dead"], ["t"]],
        [("s", "alive", VarLabel(1)), ("alive", "t", ConstLabel(Fraction(1)))],
    )
    b = prune(a)
    assert all("dead" not in lvl for lvl in b.levels)
    assert expand(b) == expand(a)


def test_prune_disconnected_gives_zero_program():
    a = make_abp(Q, 1, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1))])
    b = prune(a)
    assert expand(b).is_zero
    assert validate(b) == []


def test_zero_abp():
    z = zero_abp(Q, 3)
    assert validate(z) == []
    assert expand(z).is_zero
    assert evaluate(z, (Fraction(1), Fraction(2), Fraction(3))) == 0


def test_lift_constants():
    F2 = prime_field(2)
    F8 = extension_field(2, 3)
    a = make_abp(
        F2,
        2,
        [["s"], ["m"], ["t"]],
        [("s", "m", VarLabel(1)), ("m", "t", ConstLabel(1))],
    )
    b = lift_constants(a, F8)
    assert b.field == F8
    one = F8.one()
    assert evaluate(b, (one, one)) == one


# -- stats --------------------------------------------------------------------


def test_stats_two_path():
    st = stats(two_path())
    assert st.size == 4
    assert st.depth == 2
    assert st.width == 2
    assert st.reads == {1: 1, 2: 2}
    assert st.read == 2


def test_stats_constant_only_program():
    a = make_abp(Q, 1, [["s"], ["t"]], [("s", "t", ConstLabel(Fraction(7)))])
    st = stats(a)
    assert st.read == 0 and st.reads == {}
