"""Obliviation, derivatives, cut decomposition, independence reduction."""

import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

import oabp.abp
import oabp.transforms
from oabp.abp import (
    ConstLabel,
    Permutation,
    VarLabel,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    infer_order,
    make_abp,
    prune,
    stats,
)
from oabp.corpus import cancel_pair, odd_variable_corpus, standard_corpus
from oabp.errors import StructureError
from oabp.families import elementary_symmetric_abp, ryser_permanent_abp
from oabp.fields import rationals
from oabp.linalg import SpanBuilder
from oabp.poly import SparsePoly
from oabp.serialize import abp_dumps
from oabp.transforms import (
    Decomposition,
    cut_decompose,
    derivative_abp,
    obliviate,
    reduce_independent,
)
from reference import (
    coefficient_rank,
    derivative_abp_reference,
    obliviate_reference,
    pair_sum,
    prune_edges_reference,
    renamed_reversed,
    renamed_shuffled,
)

Q = rationals()


# -- obliviate ----------------------------------------------------------------


def test_obliviate_contract_on_corpus_sample():
    for member in standard_corpus()[:60]:
        a = member.abp
        b = obliviate(a)
        assert expand(b) == expand(a), member.name
        assert check_oblivious(b).ok, member.name
        assert check_order(b, a.order), member.name
        assert stats(b).reads == stats(a).reads, member.name
        assert stats(b).width <= 2 * stats(a).size, member.name


def test_obliviate_lays_out_only_the_variables_read():
    # 99 corpus members declare variables they never read; none gets a layer
    unread = 0
    for member in standard_corpus():
        a = member.abp
        assert obliviate(a).depth == 2 * len(stats(a).reads) + 1, member.name
        unread += len(stats(a).reads) < a.num_vars
    assert unread == 99


def test_obliviate_keeps_reads_through_cancelling_constants():
    # two s->m paths with weights 1 and -1: the collapsed constant edge into
    # the carry of m is zero, but both x1 edges must survive
    a = make_abp(
        Q,
        2,
        [["s"], ["p", "q"], ["m"], ["t"]],
        [
            ("s", "p", ConstLabel(Fraction(1))),
            ("s", "q", ConstLabel(Fraction(-1))),
            ("p", "m", VarLabel(1)),
            ("q", "m", VarLabel(1)),
            ("m", "t", VarLabel(2)),
        ],
    )
    assert expand(a).is_zero
    b = obliviate(a)
    assert expand(b).is_zero
    assert stats(b).reads == {1: 2, 2: 1}


def is_subsequence(short, long):
    rest = iter(long)
    return all(e in rest for e in short)


def test_obliviate_is_the_full_layout_without_dead_structure():
    programs = [(m.name, m.abp) for m in standard_corpus() + odd_variable_corpus()]
    programs += [(f"{name}-{name}", cancel_pair(a, "_c")) for name, a in programs]
    programs += [
        ("ryser_4", ryser_permanent_abp(4)),
        ("ryser_5", ryser_permanent_abp(5)),
        ("symm_12_4", elementary_symmetric_abp(12, 4)),
    ]
    for name, a in programs:
        got, full = obliviate(a), obliviate_reference(a)
        assert is_subsequence(got.edges, full.edges), name
        reads = [e for e in full.edges if isinstance(e.label, VarLabel)]
        assert [e for e in got.edges if isinstance(e.label, VarLabel)] == reads, name
        assert abp_dumps(prune(got)) == abp_dumps(prune(full)), name
        # equal programs, edge order included, so equal bytes
        for i in range(1, a.num_vars + 1):
            assert derivative_abp(got, i) == derivative_abp(full, i), (name, i)


@pytest.mark.parametrize(
    "a, edges",
    [
        (ryser_permanent_abp(4), 1289),
        (ryser_permanent_abp(5), 5281),
        (elementary_symmetric_abp(12, 4), 493),
    ],
    ids=["ryser_4", "ryser_5", "symm_12_4"],
)
def test_obliviate_lays_out_no_dead_structure(a, edges):
    b = obliviate(a)
    assert b == prune(b)
    assert len(b.edges) == edges


def test_obliviate_respects_explicit_order():
    # reads x2 then x1; only the order 2,1 works
    a = make_abp(
        Q,
        2,
        [["s"], ["m"], ["t"]],
        [("s", "m", VarLabel(2)), ("m", "t", VarLabel(1))],
    )
    pi = Permutation.from_sequence([2, 1])
    b = obliviate(replace(a, order=pi))
    assert expand(b) == expand(a)
    assert check_order(b, pi)
    assert b.order == pi
    with pytest.raises(StructureError):
        obliviate(replace(a, order=Permutation.identity(2)))


def test_obliviate_unorderable_program_raises():
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
    with pytest.raises(StructureError):
        obliviate(a)


def test_obliviate_single_variable():
    a = make_abp(Q, 1, [["s"], ["t"]], [("s", "t", VarLabel(1))])
    b = obliviate(a)
    assert expand(b) == SparsePoly.variable(Q, 1)
    assert check_oblivious(b).ok


# -- derivative ---------------------------------------------------------------


def test_derivative_matches_polynomial_derivative():
    for member in standard_corpus()[:25]:
        if member.zero:
            continue
        b = obliviate(member.abp)
        p = expand(b)
        for i in sorted(p.variables()):
            assert expand(derivative_abp(b, i)) == p.derivative(i), (member.name, i)


def test_derivative_of_unread_variable_is_zero_program():
    a = make_abp(
        Q, 3, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(3))]
    )
    d = derivative_abp(obliviate(a), 2)
    assert expand(d).is_zero


@pytest.mark.parametrize("i", [0, -1, 4, 999])
def test_derivative_refuses_a_variable_out_of_range(i):
    a = make_abp(
        Q, 3, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(3))]
    )
    with pytest.raises(StructureError, match=f"variable x_{i} out of range 1..3"):
        derivative_abp(obliviate(a), i)


def test_derivative_needs_single_layer_reads():
    a = make_abp(
        Q, 1, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", VarLabel(1))]
    )
    with pytest.raises(StructureError, match="single-layer reads required"):
        derivative_abp(a, 1)
    # one layer reads x1 on one edge and x2 on another
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
    with pytest.raises(StructureError, match="not oblivious: layer 0 mixes x_1 and x_2"):
        derivative_abp(mixed, 1)


def test_derivative_matches_the_build_then_prune_reference():
    programs = [(m.name, obliviate(m.abp)) for m in standard_corpus()]
    programs.append(("ryser_4", obliviate(ryser_permanent_abp(4))))
    for name, b in programs:
        for i in range(1, b.num_vars + 1):
            got, want = derivative_abp(b, i), derivative_abp_reference(b, i)
            assert got == want, (name, i)
            assert abp_dumps(got) == abp_dumps(want), (name, i)


def test_prune_keeps_edge_order_on_shuffled_presentations():
    rng = random.Random(23)
    dropped = 0
    for member in standard_corpus()[::4]:
        for a in (member.abp, obliviate(member.abp)):
            b = renamed_shuffled(a, rng)
            kept = prune(b).edges
            assert kept == prune_edges_reference(b), member.name
            dropped += len(b.edges) - len(kept)
    assert dropped > 0  # the sample has dead branches to drop


def count_calls(monkeypatch, module, name, calls):
    fn = getattr(module, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)

    monkeypatch.setattr(module, name, counted, raising=False)


def test_derivative_and_cut_group_the_program_once(monkeypatch):
    b = obliviate(ryser_permanent_abp(3))
    layer_of = {x: l for l, x in enumerate(check_oblivious(b).layer_vars) if x is not None}
    calls = Counter()
    for name in ("_layers", "validate"):
        count_calls(monkeypatch, oabp.abp, name, calls)
        # a transform that imported the name would look it up here
        monkeypatch.setattr(oabp.transforms, name, getattr(oabp.abp, name), raising=False)
    d = derivative_abp(b, 2)
    assert calls == {"_layers": 1}
    calls.clear()
    cut_decompose(d, layer_of[2] + 1)
    assert calls == {"_layers": 1}


# -- cut decomposition --------------------------------------------------------


def test_cut_sum_identity_everywhere():
    for member in standard_corpus()[:30]:
        a = member.abp
        p = expand(a)
        for lvl in range(1, len(a.levels) - 1):
            try:
                dec = cut_decompose(a, lvl)
            except StructureError:
                continue
            assert pair_sum(dec) == p, (member.name, lvl)
            assert dec.width == len(dec.left) == len(dec.right)
            assert dec.cut_level == lvl


def test_cut_rejects_straddling_variable():
    # x1 read on both sides of every interior cut
    a = make_abp(
        Q,
        1,
        [["s"], ["m"], ["n"], ["t"]],
        [
            ("s", "m", VarLabel(1)),
            ("m", "n", ConstLabel(Fraction(2))),
            ("n", "t", VarLabel(1)),
        ],
    )
    for lvl in (1, 2):
        with pytest.raises(StructureError):
            cut_decompose(a, lvl)


def test_cut_rejects_boundary_levels():
    a = make_abp(Q, 1, [["s"], ["m"], ["t"]], [("s", "m", VarLabel(1)), ("m", "t", ConstLabel(Fraction(1)))])
    with pytest.raises(StructureError):
        cut_decompose(a, 0)
    with pytest.raises(StructureError):
        cut_decompose(a, 2)


# -- independence reduction ---------------------------------------------------


def test_reduce_yields_independent_pairs_and_preserves_sum():
    checked = 0
    for member in standard_corpus()[:40]:
        if member.zero:
            continue
        a = member.abp
        p = expand(a)
        for lvl in range(1, len(a.levels) - 1):
            try:
                dec = cut_decompose(a, lvl)
            except StructureError:
                continue
            red = reduce_independent(dec)
            assert pair_sum(red) == p, (member.name, lvl)
            assert red.width <= dec.width
            assert not any(l.is_zero or r.is_zero for l, r in zip(red.left, red.right))
            if red.left:
                assert coefficient_rank(red.left) == len(red.left), (member.name, lvl)
                assert coefficient_rank(red.right) == len(red.right), (member.name, lvl)
            checked += 1
    assert checked > 20


def test_reduce_accepts_program_variables_mixed_with_seed_names():
    # ints and seed names do not compare as raw monomials, so every vector
    # with both kinds of term must enter the span through mono_sort_key
    x1, z1, u1 = (SparsePoly.variable(Q, v) for v in (1, "z1", "u1"))
    one = SparsePoly.const(Q, Fraction(1))
    left = [x1.add(z1), z1, x1, SparsePoly.zero(Q), x1.mul(u1).add(one)]
    right = [x1, u1.add(one), z1, u1, one.add(one)]
    dec = Decomposition(left, right)
    red = reduce_independent(dec)
    assert pair_sum(red) == pair_sum(dec)
    assert red.width == coefficient_rank(red.left) == coefficient_rank(red.right) == 3
    assert not any(l.is_zero or r.is_zero for l, r in zip(red.left, red.right))


def test_reduce_collapses_duplicate_paths():
    # both middle nodes carry the same left polynomial x1, so one pair suffices
    a = make_abp(
        Q,
        2,
        [["s"], ["m", "n"], ["t"]],
        [
            ("s", "m", VarLabel(1)),
            ("s", "n", VarLabel(1)),
            ("m", "t", VarLabel(2)),
            ("n", "t", ConstLabel(Fraction(3))),
        ],
    )
    dec = cut_decompose(a, 1)
    assert dec.width == 2
    red = reduce_independent(dec)
    assert red.width == 1
    assert pair_sum(red) == expand(a)


def test_reduce_rejects_zero_sum():
    a = make_abp(
        Q,
        1,
        [["s"], ["m", "n"], ["t"]],
        [
            ("s", "m", VarLabel(1)),
            ("s", "n", VarLabel(1)),
            ("m", "t", ConstLabel(Fraction(1))),
            ("n", "t", ConstLabel(Fraction(-1))),
        ],
    )
    dec = cut_decompose(a, 1)
    assert pair_sum(dec).is_zero
    with pytest.raises(StructureError):
        reduce_independent(dec)
    x1 = SparsePoly.variable(Q, 1)
    for left, right in (([], []), ([x1], []), ([x1], [x1, x1])):
        with pytest.raises(StructureError, match="nonempty and aligned"):
            reduce_independent(Decomposition(left, right, cut_level=1))


def test_reduce_refuses_a_reduction_that_changes_the_polynomial(monkeypatch):
    # the final identity check is a fault check: a span whose combinations
    # are one off must make reduce_independent refuse, not return
    class OneOff(SpanBuilder):
        def insert(self, vec, tag):
            combo = super().insert(vec, tag)
            return combo and {t: c + 1 for t, c in combo.items()}

    x1, x2 = SparsePoly.variable(Q, 1), SparsePoly.variable(Q, 2)
    dec = Decomposition([x1, x1.scale(Fraction(2, 3))], [x2, x2.scale(Fraction(-1, 5))])
    assert reduce_independent(dec).width == 1
    monkeypatch.setattr(oabp.transforms, "SpanBuilder", OneOff)
    with pytest.raises(StructureError, match="^reduction changed the represented polynomial$"):
        reduce_independent(dec)


# -- edge order -----------------------------------------------------------------


def test_results_do_not_depend_on_edge_order():
    for member in standard_corpus()[::5]:
        a = member.abp
        b = renamed_reversed(a)
        point = tuple(Fraction(i + 2, 2 * i + 3) for i in range(a.num_vars))
        assert evaluate(b, point) == evaluate(a, point), member.name
        assert expand(b) == expand(a), member.name
        assert expand(prune(b)) == expand(prune(a)), member.name
        pi = infer_order(replace(a, order=None))
        assert infer_order(replace(b, order=None)) == pi, member.name
        assert check_order(b, pi) and check_order(b, a.order), member.name
        ob, oa = obliviate(b), obliviate(a)
        assert expand(ob) == expand(oa), member.name
        assert stats(ob).reads == stats(oa).reads, member.name
        for level in range(1, a.depth):
            try:
                want = pair_sum(cut_decompose(a, level))
            except StructureError:  # the cut does not separate the reads
                with pytest.raises(StructureError):
                    cut_decompose(b, level)
                continue
            assert pair_sum(cut_decompose(b, level)) == want, (member.name, level)
