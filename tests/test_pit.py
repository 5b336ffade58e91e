"""Identity testing: exact span, hitset grid, random probing, and the
composition audit of the generator."""

import random
import time
from dataclasses import replace
from fractions import Fraction
from math import prod

import pytest
from reference import over_prime, renamed_shuffled

import oabp.abp
import oabp.generator
import oabp.pit
import oabp.transforms
from oabp.abp import (
    Abp,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    expand,
    lift_constants,
    make_abp,
    resolve_order,
    stats,
    zero_abp,
)
from oabp.corpus import cancel_pair, odd_variable_corpus, random_ordered_abp, standard_corpus
from oabp.errors import BudgetError, FieldError, StructureError
from oabp.families import elementary_symmetric_abp, ryser_permanent_abp
from oabp.fields import extension_field, prime_field, rationals
from oabp.generator import GeneratorParams, build_generator
from oabp.linalg import SpanBuilder
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
    span_test,
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
    assert [level_for(n) for n in (0, 1, 2, 3, 4, 5, 8, 9)] == [0, 0, 1, 2, 2, 3, 3, 4]
    with pytest.raises(StructureError):
        level_for(-1)


def test_seed_grid_size_default_and_component_bound():
    assert seed_grid_size(2, 1, PitOptions()) == (1, 3, 54)
    with pytest.raises(BudgetError, match="span mode needs no grid"):
        seed_grid_size(2, 1, PitOptions(grid_budget=53))


def test_seed_grid_size_refuses_a_huge_variable_count_before_per_slot_bounds(monkeypatch):
    def no_slots(*args):
        raise AssertionError("_slot_degrees called")

    monkeypatch.setattr(oabp.generator, "_slot_degrees", no_slots)
    with pytest.raises(BudgetError, match="span mode needs no grid") as info:
        seed_grid_size(2**20, 1, PitOptions())
    assert "at least 1048577^20 points" in str(info.value)


def test_seed_grid_size_per_seed():
    # read-once programs of three variables fit the default budget
    assert seed_grid_size(3, 1, PitOptions()) == (2, 10, 138240)
    with pytest.raises(BudgetError, match=r"needs 5\*3\*1\*5\*17\*5\*5\*5\*13 = 2071875"):
        seed_grid_size(4, 1, PitOptions(grid_budget=2 * 10**6))


def test_hitset_and_compose_refuse_a_wrong_order_alike():
    wrong_order = replace(x1x2(), order=Permutation.from_sequence([2, 1]))
    # one path reads x1 then x2, the other x2 then x1
    crossed = make_abp(
        Q, 2, [["s"], ["a", "b"], ["t"]],
        [("s", "a", VarLabel(1)), ("a", "t", VarLabel(2)),
         ("s", "b", VarLabel(2)), ("b", "t", VarLabel(1))],
    )
    # doubled_x1x2 reads each variable twice, over the promised read bound 1
    for program, expected in (
        (wrong_order, "program does not respect the order [2, 1]"),
        (crossed, "program respects no variable order"),
        (doubled_x1x2(Q), "program reads a variable 2 times, over the read bound 1"),
    ):
        messages = []
        for test in (span_test, hitset_test_abp, compose_test):
            with pytest.raises(StructureError) as info:
                test(program, 1)
            messages.append(str(info.value))
        assert messages == [expected] * 3


@pytest.mark.parametrize("r", [0, -1])
def test_every_exact_mode_refuses_a_read_bound_below_one(r):
    # a constant reads no variable, so no read count can refuse it first
    const = make_abp(Q, 0, [["s"], ["t"]], [("s", "t", ConstLabel(Fraction(3)))])
    for program in (const, x1x2()):
        for test in (span_test, hitset_test_abp, compose_test):
            with pytest.raises(StructureError, match=rf"^the read bound must be at least 1, got {r}$"):
                test(program, r)
        # the bare oracle refuses with the same text, before any query
        def oracle(point):
            raise AssertionError("queried")

        with pytest.raises(StructureError, match=rf"^the read bound must be at least 1, got {r}$"):
            hitset_test(oracle, program.num_vars, r, Q)


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


def counted_groupings(monkeypatch):
    """The list every _layers call appends its program to, wherever the
    package looks _layers up."""
    calls = []
    grouping = oabp.abp._layers

    def counted(a):
        calls.append(a)
        return grouping(a)

    for module in (oabp.abp, oabp.pit, oabp.transforms):
        monkeypatch.setattr(module, "_layers", counted)
    return calls


def test_hitset_groups_the_program_once_per_verdict(monkeypatch):
    calls = counted_groupings(monkeypatch)
    per_verdict = []
    for n, queries in ((1, 2), (2, 54)):
        calls.clear()
        v = hitset_test_abp(zero_abp(Q, n), 1)
        assert (v.verdict, v.queries) == ("ZERO", queries)
        per_verdict.append(len(calls))
    # grouping on every query would group the 54-query verdict 52 more times
    assert per_verdict[0] == per_verdict[1]


def test_order_resolution_groups_the_program_once(monkeypatch):
    calls = counted_groupings(monkeypatch)
    member = standard_corpus()[0].abp
    assert member.order is not None
    for a in (member, replace(member, order=None)):
        calls.clear()
        compose_test(a, 2)
        # once to resolve the order, once to expand
        assert len(calls) == 2, a.order
        calls.clear()
        obliviate(a)
        assert len(calls) == 1, a.order
        calls.clear()
        span_test(a, 2)
        assert len(calls) == 1, a.order


def test_hitset_grid_budget_error_points_at_span(monkeypatch, fixtures_dir):
    with pytest.raises(BudgetError) as info:
        hitset_test(abp_oracle(x1x2()), 2, 1, Q, opts=PitOptions(grid_budget=50))
    assert str(info.value).endswith("; span mode needs no grid")
    # and span mode answers what the default grid budget refuses
    a = abp_loads((fixtures_dir / "ordersep_2.abp.json").read_text())
    with pytest.raises(BudgetError, match="span mode needs no grid"):
        hitset_test_abp(a, 1)
    assert span_test(a, 1).verdict == "NONZERO"

    # the grid is sized before a working field is chosen, so F2 is never extended
    def no_field(*args):
        raise AssertionError("ensure_field called")

    monkeypatch.setattr(oabp.pit, "ensure_field", no_field)
    with pytest.raises(BudgetError, match="span mode needs no grid"):
        hitset_test_abp(x1x2(prime_field(2)), 1, PitOptions(grid_budget=50))


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
        gen = build_generator(GeneratorParams(level_for(n), m.read_bound, a.field))
        images = {i: gen[pi.rank(i) - 1] for i in range(1, n + 1)}
        want = expand(obliviate(replace(a, order=pi))).compose(images).sorted_terms()[0][0]
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


@pytest.mark.parametrize("field", [Q, prime_field(2)], ids=["Q", "F2"])
def test_a_program_over_no_variables_gets_an_exact_verdict(field):
    # the level-0 map feeds no slot, so every seed bound is 0 and the grid
    # is one point: the program's constant decides both exact modes
    const = make_abp(field, 0, [["s"], ["t"]], [("s", "t", ConstLabel(field.from_int(3)))])
    for a, verdict, witness in ((const, "NONZERO", ()), (zero_abp(field, 0), "ZERO", None)):
        hit = hitset_test_abp(a, 1)
        assert (hit.queries, hit.grid) == (1, (1,))
        for v in (hit, compose_test(a, 1), random_probe(abp_oracle(a), 0, field)):
            assert (v.verdict, v.witness) == (verdict, witness), v.mode
        # span's witness is the constant monomial with its coefficient
        span = span_test(a, 1)
        want = None if witness is None else ((), field.from_int(3))
        assert (span.verdict, span.witness) == (verdict, want)


def test_compose_term_budget_reaches_the_generator_build(fixtures_dir, monkeypatch):
    # five variables need the level-3, read-2 map, whose build outgrows a
    # small budget long before the default one
    a = abp_loads((fixtures_dir / "ordersep_2.abp.json").read_text())
    monkeypatch.setattr(oabp.pit, "DEFAULT_TERM_BUDGET", 1000)
    start = time.perf_counter()
    with pytest.raises(BudgetError, match=r"exceeds term budget 1000$"):
        compose_test(a, 2)
    assert time.perf_counter() - start < 1.0


def test_small_field_auto_extension():
    f2 = prime_field(2)
    v = hitset_test_abp(x1x2(f2), 1)
    assert v.verdict == "NONZERO"
    assert v.note is not None and v.note.startswith("evaluated over extension")
    work = ensure_field(f2, 5)
    assert (work.p, work.deg, work.config.modulus) == (2, 3, (1, 1, 0, 1))
    # the reported witness evaluates nonzero over that extension
    oracle = abp_oracle(lift_constants(x1x2(f2), work))
    assert oracle(v.witness) != work.zero()

    f3 = prime_field(3)
    v3 = compose_test(x1x2(f3), 1)
    assert v3.verdict == "NONZERO"
    assert v3.note is not None and v3.note.startswith("composed over extension")
    work3 = ensure_field(f3, 5)
    assert (work3.p, work3.deg, work3.config.modulus) == (3, 2, (1, 0, 1))


def test_char_two_cancellation_is_zero():
    # 2*x1*x2 vanishes identically over F2 and stays zero in the extension
    a = doubled_x1x2(prime_field(2))
    assert expand(a).is_zero
    v = hitset_test_abp(a, 2)
    assert v.verdict == "ZERO"
    assert v.note is not None and "extension" in v.note
    assert compose_test(a, 2).verdict == "ZERO"
    # span never lifts: it decides over F_2 itself
    span = span_test(a, 2)
    assert (span.verdict, span.note, span.field) == ("ZERO", None, a.field)
    # the same shape over the rationals is honestly nonzero
    assert hitset_test_abp(doubled_x1x2(Q), 2).verdict == "NONZERO"


def test_ensure_field_paths():
    assert ensure_field(Q, 10**9) is Q
    f11 = prime_field(11)
    assert ensure_field(f11, 9) is f11
    # F_2 reaches 2^20 points; more needs degree 21, past the irreducible search
    assert ensure_field(prime_field(2), 2**20).deg == 20
    with pytest.raises(BudgetError, match=r"search over 2\^21 candidates"):
        ensure_field(prime_field(2), 2**20 + 1)
    # extensions are not re-extended
    with pytest.raises(FieldError):
        ensure_field(extension_field(2, 2), 17)


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
    for trials in (0, -3):
        with pytest.raises(BudgetError, match="at least 1 trial"):
            random_probe(zero_oracle, 2, Q, opts=PitOptions(trials=trials))


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
        audit = compose_test(a, r)
        ref = span_test(a, r)
        assert got.verdict == audit.verdict == ref.verdict == truth, name
        # random mode may miss a nonzero program, never invent one
        assert truth == "NONZERO" or random_probe(abp_oracle(a), 2, a.field).verdict == "ZERO", name
        zeros += truth == "ZERO"
        lifted += got.note is not None and audit.note is not None
        assert ref.note is None, name
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


# -- span mode: the exact reference ------------------------------------------


def assert_span_matches_expansion(a, r, name):
    """span_test(a, r) against expand: the same verdict, and a NONZERO
    witness is the expansion's least monomial with its exact coefficient."""
    v = span_test(a, r)
    truth = expand(a)
    assert (v.verdict == "ZERO") == truth.is_zero, name
    assert (v.mode, v.queries, v.note, v.field, v.grid) == ("span", 0, None, a.field, None), name
    if v.verdict == "NONZERO":
        mono, coeff = v.witness
        assert mono == truth.least_monomial(), name
        assert truth.terms[mono] == coeff, name
    return v


def test_span_matches_expansion_on_both_corpora_and_their_cancel_pairs():
    nonzero = 0
    for corpus in (standard_corpus(), odd_variable_corpus()):
        for m in corpus:
            v = assert_span_matches_expansion(m.abp, m.read_bound, m.name)
            nonzero += v.verdict == "NONZERO"
            pair = cancel_pair(m.abp, "c")
            assert assert_span_matches_expansion(pair, 2 * m.read_bound, m.name).verdict == "ZERO"
    assert nonzero == 214


@pytest.mark.parametrize("p", [2, 3, 10007])
def test_span_matches_expansion_on_seeded_programs_of_read_up_to_three(p):
    field = prime_field(p)
    rng = random.Random(p)
    reads = []
    for i in range(100):
        a = random_ordered_abp(field, rng.randint(5, 8), rng.randint(1, 3), rng)
        reads.append(stats(a).read)
        assert_span_matches_expansion(a, reads[-1], (p, i))
        assert_span_matches_expansion(cancel_pair(a, "c"), 2 * reads[-1], (p, i, "pair"))
    assert set(reads) == {1, 2, 3}


def test_span_decides_what_no_other_exact_mode_decides(fixtures_dir):
    # hitset refuses both grids; the parent's compose mode ran out of budget
    # on the first and for over 40 s on the second
    ordersep = abp_loads((fixtures_dir / "ordersep_2.abp.json").read_text())
    wide = replace(x1x2(), num_vars=9)
    for a, r, witness in (
        (ordersep, 1, (((1, 1), (2, 1), (4, 1)), Fraction(1))),
        (ordersep, 3, (((1, 1), (2, 1), (4, 1)), Fraction(1))),
        (wide, 1, (((1, 1), (2, 1)), Fraction(1))),
    ):
        start = time.perf_counter()
        v = span_test(a, r)
        assert time.perf_counter() - start < 2.0
        assert (v.verdict, v.witness) == ("NONZERO", witness)
        assert expand(a).terms[witness[0]] == witness[1]
        with pytest.raises(BudgetError, match="span mode needs no grid"):
            hitset_test_abp(a, r)


@pytest.mark.parametrize(
    "name, build, span_dim",
    [
        ("symm_48_6", lambda: elementary_symmetric_abp(48, 6), 7),
        ("ryser_5", lambda: ryser_permanent_abp(5), 49),
    ],
    ids=["symm_48_6", "ryser_5"],
)
def test_span_decides_the_large_families_and_their_cancel_pairs(name, build, span_dim):
    a = build()
    r = stats(a).read
    for program, read, verdict in ((a, r, "NONZERO"), (cancel_pair(a, "c"), 2 * r, "ZERO")):
        start = time.perf_counter()
        v = span_test(program, read)
        assert time.perf_counter() - start < 2.0, name
        assert v.verdict == verdict, name
    assert span_test(a, r).span_dim == span_dim


def test_span_witness_ignores_node_names_and_edge_order():
    rng = random.Random(5)
    for m in standard_corpus()[::7] + odd_variable_corpus():
        v = span_test(m.abp, m.read_bound)
        for _ in range(2):
            w = span_test(renamed_shuffled(m.abp, rng), m.read_bound)
            assert (w.verdict, w.witness, w.span_dim) == (v.verdict, v.witness, v.span_dim), m.name


def node_polynomials(a):
    """The polynomial of the source-to-v paths for every node v: a plain
    forward pass over the edges in level order."""
    level = {v: i for i, lvl in enumerate(a.levels) for v in lvl}
    polys = {a.source: SparsePoly.const(a.field, a.field.one())}
    for e in sorted(a.edges, key=lambda e: level[e.src]):
        label = e.label
        factor = (
            SparsePoly.variable(a.field, label.index)
            if isinstance(label, VarLabel)
            else SparsePoly.const(a.field, label.value)
        )
        term = polys.get(e.src, SparsePoly.zero(a.field)) * factor
        polys[e.dst] = polys.get(e.dst, SparsePoly.zero(a.field)).add(term)
    return polys


def test_every_span_candidate_is_its_monomials_coefficient_vector(monkeypatch):
    # the invariant the witness rests on: a vector tagged M holds, at each
    # node it keeps, M's coefficient in that node's polynomial, never an
    # echelon residual
    inserted = []

    class Recording(SpanBuilder):
        def insert(self, vec, tag):
            inserted.append((tag, dict(vec)))
            return super().insert(vec, tag)

    monkeypatch.setattr(oabp.pit, "SpanBuilder", Recording)
    rng = random.Random(7)
    programs = [(m.abp, m.read_bound) for m in standard_corpus()[::4] + odd_variable_corpus()]
    for _ in range(40):
        a = random_ordered_abp(prime_field(3), rng.randint(5, 8), rng.randint(1, 3), rng)
        programs.append((a, stats(a).read))
    checked = 0
    for a, r in programs:
        inserted.clear()
        span_test(a, r)
        polys = node_polynomials(a)
        for mono, vec in inserted:
            for v, c in vec.items():
                assert polys[v].terms.get(mono) == c, (mono, v)
                checked += 1
    assert checked > 1000
