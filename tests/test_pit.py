"""Identity testing: hitset grid, exact composition, random probing."""

import time
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest

import oabp.pit
import oabp.transforms
from oabp.abp import (
    Abp,
    ConstLabel,
    Permutation,
    VarLabel,
    expand,
    lift_constants,
    make_abp,
    resolve_order,
)
from oabp.corpus import standard_corpus
from oabp.errors import BudgetError, FieldError, StructureError
from oabp.fields import extension_field, prime_field, rationals
from oabp.generator import GeneratorParams, build_generator
from oabp.pit import (
    PitOptions,
    abp_oracle,
    compose_test,
    ensure_field,
    hitset_test,
    hitset_test_abp,
    level_for,
    random_probe,
    seed_grid_size,
)
from oabp.poly import SparsePoly
from oabp.serialize import abp_loads
from oabp.transforms import obliviate

Q = rationals()


def product_program(field, labels):
    """Single-path program multiplying the given labels in order."""
    nodes = [f"n{i}" for i in range(len(labels) + 1)]
    return make_abp(
        field,
        max((l.index for l in labels if isinstance(l, VarLabel)), default=0),
        [[v] for v in nodes],
        [(nodes[i], nodes[i + 1], labels[i]) for i in range(len(labels))],
    )


def x1x2(field=Q):
    return product_program(field, [VarLabel(1), VarLabel(2)])


def doubled_x1x2(field):
    # two parallel copies of x1*x2, so the program computes 2*x1*x2
    return make_abp(
        field,
        2,
        [["s"], ["p", "q"], ["a", "b"], ["t"]],
        [
            ("s", "p", ConstLabel(field.one())),
            ("s", "q", ConstLabel(field.one())),
            ("p", "a", VarLabel(1)),
            ("q", "b", VarLabel(1)),
            ("a", "t", VarLabel(2)),
            ("b", "t", VarLabel(2)),
        ],
    )


def test_level_for():
    assert [level_for(n) for n in (1, 2, 3, 4, 5, 8, 9)] == [0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(StructureError):
        level_for(0)


def test_seed_grid_size_default_and_component_bound():
    assert seed_grid_size(2, 1, PitOptions()) == (1, 3, 54)
    with pytest.raises(BudgetError, match="compose mode avoids the grid"):
        seed_grid_size(2, 1, PitOptions(grid_budget=53))


def test_seed_grid_size_per_seed():
    # read-once programs of three variables fit the default budget
    assert seed_grid_size(3, 1, PitOptions()) == (2, 10, 138240)
    with pytest.raises(BudgetError, match=r"needs 5\*3\*1\*5\*17\*5\*5\*5\*13 = 2071875"):
        seed_grid_size(4, 1, PitOptions(grid_budget=2 * 10**6))


def test_hitset_and_compose_refuse_a_wrong_order_alike():
    wrong_order = replace(x1x2(), order=Permutation.from_sequence([2, 1]))
    # doubled_x1x2 reads each variable twice, over the promised read bound 1
    for program, expected in (
        (wrong_order, "program does not respect the order [2, 1]"),
        (doubled_x1x2(Q), "program reads a variable 2 times, over the read bound 1"),
    ):
        messages = []
        for test in (hitset_test_abp, compose_test):
            with pytest.raises(StructureError) as info:
                test(program, 1)
            messages.append(str(info.value))
        assert messages[0] == messages[1] == expected


# frozen run: x1*x2 over the rationals, read bound 1
def test_hitset_nonzero_frozen():
    v = hitset_test(abp_oracle(x1x2()), 2, 1, Q)
    assert v.verdict == "NONZERO"
    assert v.mode == "hitset"
    assert v.queries == 6
    assert v.witness == (Fraction(-1), Fraction(2))
    assert v.note is None
    # the witness really is a nonzero point of the polynomial
    assert Fraction(-1) * Fraction(2) != 0


def test_hitset_zero_exhausts_grid():
    # x1*x2 - x1*x2 through two cancelling branches
    a = doubled_x1x2(Q)
    neg = make_abp(
        Q,
        2,
        a.levels,
        [
            (e.src, e.dst, ConstLabel(Fraction(-1)))
            if e.src == "s" and e.dst == "q"
            else (e.src, e.dst, e.label)
            for e in a.edges
        ],
    )
    assert expand(neg).is_zero
    v = hitset_test(abp_oracle(neg), 2, 1, Q)
    assert v.verdict == "ZERO"
    assert v.queries == 54


def test_hitset_grid_budget_error_mentions_compose():
    with pytest.raises(BudgetError) as info:
        hitset_test(abp_oracle(x1x2()), 2, 1, Q, opts=PitOptions(grid_budget=50))
    assert "compose" in str(info.value)
    # the grid is sized before a working field is chosen, so F2 is never extended
    with pytest.raises(BudgetError):
        hitset_test_abp(x1x2(prime_field(2)), 1, PitOptions(grid_budget=50, extension_cap=1))


def test_hitset_rejects_order_arity_mismatch():
    with pytest.raises(StructureError):
        hitset_test(abp_oracle(x1x2()), 2, 1, Q, pi=Permutation.identity(3))


def test_compose_witness_monomial_frozen():
    v = compose_test(x1x2(), 1)
    assert v.verdict == "NONZERO"
    assert v.mode == "compose"
    assert v.witness == (("z1", 1), ("z2", 1))
    assert v.note is None


def test_compose_witness_is_the_least_monomial_of_the_composition():
    nonzero = [m for m in standard_corpus() if not m.zero]
    for m in nonzero[::10]:
        a, n = m.abp, m.abp.num_vars
        pi = resolve_order(a)
        gen = build_generator(GeneratorParams.create(level_for(n), m.read_bound, a.field))
        images = {i: gen.outputs[pi.rank(i) - 1] for i in range(1, n + 1)}
        want = expand(obliviate(a, pi)).compose(images).sorted_terms()[0][0]
        assert compose_test(a, m.read_bound).witness == want, m.name


def test_compose_expands_the_gated_program_without_obliviating(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return obliviate(*args, **kwargs)

    monkeypatch.setattr(oabp.pit, "obliviate", counted)
    monkeypatch.setattr(oabp.transforms, "obliviate", counted)
    for m in standard_corpus()[::20]:
        compose_test(m.abp, m.read_bound)
    compose_test(x1x2(prime_field(3)), 1)  # lifted to an extension first
    assert calls == []


def test_compose_zero():
    member = next(m for m in standard_corpus() if m.zero)
    assert compose_test(member.abp, member.read_bound).verdict == "ZERO"


def test_compose_term_budget_reaches_the_generator_build(fixtures_dir):
    # five variables need the level-3, read-2 map, whose build outgrows a
    # small budget long before the default one
    a = abp_loads((fixtures_dir / "ordersep_2.abp.json").read_text())
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"exceeds term budget 1000$"):
        compose_test(a, 2, PitOptions(term_budget=1000))
    assert time.perf_counter() - start < 1.0


def test_small_field_auto_extension():
    f2 = prime_field(2)
    v = hitset_test_abp(x1x2(f2), 1)
    assert v.verdict == "NONZERO"
    assert v.note is not None and v.note.startswith("evaluated over extension")
    work = ensure_field(f2, 5, PitOptions())
    assert (work.p, work.deg, work.config.modulus) == (2, 3, (1, 1, 0, 1))
    # the reported witness evaluates nonzero over that extension
    oracle = abp_oracle(lift_constants(x1x2(f2), work))
    assert oracle(v.witness) != work.zero()

    f3 = prime_field(3)
    v3 = compose_test(x1x2(f3), 1)
    assert v3.verdict == "NONZERO"
    assert v3.note is not None and v3.note.startswith("composed over extension")
    work3 = ensure_field(f3, 5, PitOptions())
    assert (work3.p, work3.deg, work3.config.modulus) == (3, 2, (1, 0, 1))


def test_char_two_cancellation_is_zero():
    # 2*x1*x2 vanishes identically over F2 and stays zero in the extension
    a = doubled_x1x2(prime_field(2))
    assert expand(a).is_zero
    v = hitset_test_abp(a, 2)
    assert v.verdict == "ZERO"
    assert v.note is not None and "extension" in v.note
    assert compose_test(a, 2).verdict == "ZERO"
    # the same shape over the rationals is honestly nonzero
    assert hitset_test_abp(doubled_x1x2(Q), 2).verdict == "NONZERO"


def test_ensure_field_paths():
    opts = PitOptions()
    assert ensure_field(Q, 10**9, opts) is Q
    f11 = prime_field(11)
    assert ensure_field(f11, 9, opts) is f11
    with pytest.raises(FieldError):
        ensure_field(prime_field(2), 5, PitOptions(extension_cap=2))
    # extensions are not re-extended
    with pytest.raises(FieldError):
        ensure_field(extension_field(2, 2), 17, opts)


def test_random_probe_deterministic():
    oracle = abp_oracle(x1x2())
    a = random_probe(oracle, 2, Q)
    b = random_probe(oracle, 2, Q)
    assert a == b
    assert a.verdict == "NONZERO"
    assert a.witness is not None
    other = random_probe(oracle, 2, Q, opts=PitOptions(seed=1))
    assert other.verdict == "NONZERO"


def test_random_probe_zero_is_flagged_probabilistic():
    zero_oracle = lambda point: Fraction(0)
    v = random_probe(zero_oracle, 2, Q, opts=PitOptions(trials=7))
    assert v.verdict == "ZERO"
    assert v.queries == 7
    assert v.note is not None and v.note.startswith("probabilistic")


def over_prime(a, field):
    """The same program with its integer constants reduced into F_p."""
    edges = [
        (e.src, e.dst, ConstLabel(field.from_int(int(e.label.value))))
        if isinstance(e.label, ConstLabel)
        else (e.src, e.dst, e.label)
        for e in a.edges
    ]
    return make_abp(field, a.num_vars, a.levels, edges, a.order)


def test_hitset_and_compose_agree_on_corpus_sample():
    two_var = [m for m in standard_corpus() if m.abp.num_vars == 2]
    members = [m for m in two_var if not m.zero][:12] + [m for m in two_var if m.zero][:4]
    assert len(members) == 16
    # every third member again over F_2 and F_3: both exact modes lift it, and
    # reducing the constants can cancel a nonzero member
    cases = [(m.name, m.abp, m.read_bound) for m in members]
    cases += [
        (f"{m.name}@F{p}", over_prime(m.abp, prime_field(p)), m.read_bound)
        for m in members[::3]
        for p in (2, 3)
    ]
    zeros = lifted = 0
    for name, a, r in cases:
        truth = "ZERO" if expand(a).is_zero else "NONZERO"
        got = hitset_test_abp(a, r)
        ref = compose_test(a, r)
        assert got.verdict == ref.verdict == truth, name
        # random mode may miss a nonzero program, never invent one
        assert truth == "NONZERO" or random_probe(abp_oracle(a), 2, a.field).verdict == "ZERO", name
        zeros += truth == "ZERO"
        lifted += got.note is not None and ref.note is not None
    assert 0 < zeros < len(cases)
    assert lifted == len(cases) - len(members)
    assert zeros > sum(m.zero is True for m in members)  # some member cancels mod p


def test_hitset_matches_expansion_on_every_two_variable_member():
    # each member over Q, F_10007 and F_3 (the grid runs over F_9): ZERO must
    # match the exact expansion, a NONZERO witness must not vanish on it, and
    # the bare oracle over the same working program gives the same verdict
    two_var = [m for m in standard_corpus() if m.abp.num_vars == 2]
    assert len(two_var) == 102
    zeros = 0
    for m in two_var:
        for field in (Q, prime_field(10007), prime_field(3)):
            a = m.abp if field == Q else over_prime(m.abp, field)
            got = hitset_test_abp(a, m.read_bound)
            work = got.field
            ref = expand(a)
            if work is not field:
                ref = SparsePoly(work, {mono: work.embed(c) for mono, c in ref.terms.items()})
            name = f"{m.name}@{field}"
            if got.verdict == "ZERO":
                assert ref.is_zero, name
                assert got.queries == prod(got.grid), name
                zeros += 1
            else:
                point = dict(enumerate(got.witness, start=1))
                assert ref.evaluate(point) != work.zero(), name
            oracle = abp_oracle(lift_constants(a, work) if work is not field else a)
            bare = hitset_test(oracle, 2, m.read_bound, field, pi=resolve_order(a))
            assert (bare.verdict, bare.queries, bare.witness) == (
                got.verdict, got.queries, got.witness
            ), name
    assert 0 < zeros < 3 * len(two_var)
