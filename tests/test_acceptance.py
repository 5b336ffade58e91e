"""Acceptance gate: twelve exact criteria, one verdict line each.

Run with -s to see the verdict lines as they print:

    pytest tests/test_acceptance.py -v -s

Every criterion is exact (no tolerances) and carries a wall-clock budget;
exceeding the budget fails the criterion even when the math checks out.
"""

import math
import time
from contextlib import contextmanager
from fractions import Fraction

from oabp.abp import (
    Permutation,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    stats,
    validate,
)
from oabp.corpus import odd_variable_corpus, standard_corpus
from oabp.families import (
    brute_elementary_symmetric,
    brute_permanent,
    deriv_matrix,
    elementary_symmetric_abp,
    middle_partition,
    order_separation_family,
    read_lower_bound,
    ryser_permanent_abp,
    seeded_weights,
    verify_full_rank,
)
from oabp.fields import prime_field, rationals
from oabp.generator import (
    GeneratorParams,
    build_generator,
    seed_degree_bounds,
    seed_names,
)
from oabp.linalg import matrix_rank
from oabp.pit import PitOptions, compose_test, hitset_test_abp, seed_grid_size
from oabp.poly import SparsePoly
from oabp.transforms import cut_decompose, derivative_abp, obliviate, reduce_independent
from reference import coefficient_rank, pair_sum

Q = rationals()


@contextmanager
def criterion(label: str, budget: float):
    info = {}
    start = time.perf_counter()
    try:
        yield info
    except BaseException:
        print(f"ACCEPTANCE {label} [exact]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    if elapsed >= budget:
        print(
            f"ACCEPTANCE {label} [exact]: FAIL "
            f"(took {elapsed:.2f}s, budget {budget:.0f}s)"
        )
        raise AssertionError(f"{label} exceeded its {budget:.0f}s budget")
    extra = f"; {info['note']}" if "note" in info else ""
    print(f"ACCEPTANCE {label} [exact]: PASS ({elapsed:.2f}s{extra})")


def test_c01_level_one_closed_form():
    with criterion("C1 level-one closed form", budget=1.0):
        one = Fraction(1)
        for r in (1, 2, 3):
            gen = build_generator(GeneratorParams(1, r, Q))
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
            assert gen == (first, SparsePoly(Q, second_terms))


def test_c02_compose_verdicts_across_corpus():
    with criterion("C2 composition verdicts on full corpus", budget=300.0) as info:
        members = standard_corpus()
        assert len(members) >= 200
        zeros = 0
        for m in members:
            truly_zero = expand(m.abp).is_zero
            if m.zero is not None:
                assert truly_zero == m.zero, m.name
            got = compose_test(m.abp, m.read_bound)
            assert got.verdict == ("ZERO" if truly_zero else "NONZERO"), m.name
            zeros += truly_zero
        assert 0 < zeros < len(members)
        info["note"] = f"{len(members)} members, {zeros} zero"


def test_c03_hitset_grid_end_to_end():
    with criterion("C3 hitset grid end to end", budget=10.0) as info:
        members = [
            m for m in standard_corpus() if m.abp.num_vars == 2 and m.read_bound == 1
        ][:50]
        assert len(members) == 50
        assert seed_grid_size(2, 1, PitOptions()) == (1, 3, 54)
        for m in members:
            got = hitset_test_abp(m.abp, 1)
            ref = compose_test(m.abp, 1)
            assert got.verdict == ref.verdict, m.name
            if got.verdict == "NONZERO":
                assert evaluate(m.abp, got.witness) != 0, m.name
            else:
                assert got.queries == 54, m.name
        info["note"] = "50 members, 54-point grid"


def test_c04_obliviation_contract():
    with criterion("C4 obliviation contract", budget=60.0) as info:
        members = standard_corpus()
        for m in members:
            a = m.abp
            b = obliviate(a)
            assert expand(b) == expand(a), m.name
            assert check_oblivious(b).ok, m.name
            assert check_order(b, a.order), m.name
            assert stats(b).reads == stats(a).reads, m.name
            assert stats(b).width <= 2 * stats(a).size, m.name
        info["note"] = f"{len(members)} members"


def test_c05_cut_decomposition_independence():
    with criterion("C5 cut decomposition independence", budget=60.0) as info:
        pipelines = 0
        for m in standard_corpus():
            a = m.abp
            p = expand(a)
            b = obliviate(a)
            rep = check_oblivious(b)
            read_layers: dict[int, list[int]] = {}
            for layer, v in enumerate(rep.layer_vars):
                if v is not None:
                    read_layers.setdefault(v, []).append(layer)
            for v, where in read_layers.items():
                if len(where) != 1:
                    continue
                dp = p.derivative(v)
                if dp.is_zero:
                    continue
                d = derivative_abp(b, v)
                dec = cut_decompose(d, where[0] + 1)
                red = reduce_independent(dec)
                w = len(red.left)
                assert pair_sum(red) == dp, m.name
                assert coefficient_rank(red.left) == w, m.name
                assert coefficient_rank(red.right) == w, m.name
                assert w <= stats(a).read, m.name
                pipelines += 1
        assert pipelines >= 400
        info["note"] = f"{pipelines} derivative cuts reduced"


def test_c06_degree_audit():
    with criterion("C6 per-seed degree audit", budget=60.0) as info:
        # exact sum_{j <= n} deg_s(G_j) against the bound d_s that sizes the
        # hitset grid, at every variable count n the level serves; the
        # level-3, read-2 map is too large to build
        audited = 0
        for k in (1, 2, 3):
            for r in (1, 2):
                if (k, r) == (3, 2):
                    continue
                gen = build_generator(GeneratorParams(k, r, Q))
                degrees = [c.individual_degrees() for c in gen]
                for n in range(2 ** (k - 1) + 1, 2**k + 1):
                    exact = tuple(
                        sum(d.get(s, 0) for d in degrees[:n]) for s in seed_names(k, r)
                    )
                    assert exact == seed_degree_bounds(k, r, n), (k, r, n)
                    audited += 1
        # composing even x1*x2 with the level-1 map doubles the degree of a
        # seed shared by both outputs: u1 reaches 2, exactly its d_s
        gen = build_generator(GeneratorParams(1, 1, Q))
        f = SparsePoly(Q, {((1, 1), (2, 1)): Fraction(1)})
        comp = f.compose({1: gen[0], 2: gen[1]})
        u1_deg = max(
            (dict(mono).get("u1", 0) for mono in comp.terms), default=0
        )
        d_u1 = seed_degree_bounds(1, 1, 2)[seed_names(1, 1).index("u1")]
        assert u1_deg == d_u1 == 2
        info["note"] = f"{audited} (k, r, n) sums equal their bounds over Q"


def test_c07_symmetric_family_upper_side():
    with criterion("C7 symmetric family upper side", budget=30.0) as info:
        worst = 0.0
        built = 0
        for n in range(1, 9):
            for k in range(1, min(4, n) + 1):
                a = elementary_symmetric_abp(n, k)
                assert validate(a) == []
                assert check_order(a, Permutation.identity(n))
                assert check_oblivious(a).ok
                assert expand(a) == brute_elementary_symmetric(Q, n, k), (n, k)
                st = stats(a)
                assert st.read <= k, (n, k)
                worst = max(worst, st.size / (k * n))
                built += 1
        assert worst <= 2.0
        info["note"] = f"{built} programs, size <= c*k*n with c = {worst:.2f}"


def test_c08_symmetric_family_rank_lower_side():
    with criterion("C8 symmetric family rank lower side", budget=30.0) as info:
        one, zero = Fraction(1), Fraction(0)
        for k in (2, 3, 4):
            m = 2 * k - 1
            p = expand(elementary_symmetric_abp(m, k))
            dp = p.derivative(k)
            split = middle_partition(Permutation.identity(m))
            assert split.excluded == k
            rows = deriv_matrix(dp, split)
            assert matrix_rank(Q, rows) == k, k
            # every y-support of at most k - 1 variables meets a z-support,
            # so no row is empty and rows[e] is row e
            assert len(rows) == 1 << split.n, k
            # the prefix-support minor is exactly the antidiagonal
            # permutation matrix: a y-prefix of size a pairs with a z-prefix
            # of size b iff a + b = k - 1
            for a in range(k):
                for b in range(k):
                    want = one if a + b == k - 1 else zero
                    assert rows[(1 << a) - 1].get((1 << b) - 1, zero) == want, (k, a, b)
        info["note"] = "rank equals k for k in 2..4, minor verified"


def test_c09_order_separation():
    with criterion("C9 order separation", budget=30.0) as info:
        for n in (1, 2, 3):
            fam = order_separation_family(n)
            assert validate(fam.abp) == []
            assert stats(fam.abp).read == 1, n
            assert expand(fam.abp) == fam.poly, n
            assert read_lower_bound(fam.poly, fam.bad_order) == 2**n, n
            assert read_lower_bound(fam.poly, fam.good_order) <= 1, n
        info["note"] = "bad-order bounds 2, 4, 8; good order stays read-once"


def test_c10_permanent_family():
    with criterion("C10 permanent family", budget=30.0) as info:
        sizes, reads = [], []
        for n in (1, 2, 3, 4):
            a = ryser_permanent_abp(n)
            assert validate(a) == []
            assert expand(a) == brute_permanent(Q, n), n
            ones = tuple(Fraction(1) for _ in range(n * n))
            assert evaluate(a, ones) == math.factorial(n), n
            st = stats(a)
            sizes.append(st.size)
            reads.append(st.read)
            assert st.read == 2 ** (n - 1), n
            assert st.size <= 1.5 * n * n * 2**n, n
        info["note"] = f"sizes {sizes} within 1.5*n^2*2^n, reads {reads} = 2^(n-1)"


def test_c11_full_rank_weight_sweep():
    with criterion("C11 full-rank weight sweep", budget=120.0) as info:
        checks = 0
        for n in (1, 2, 3):
            report = verify_full_rank(n)
            assert report.ok, n
            assert len(report.attempts) == 1, n
            for c in report.attempts[0].checks:
                assert c.rank == 2**n, (n, c.derivative_var, c.y_vars)
            checks += len(report.attempts[0].checks)
        # adversarial weights: an all-zero first table must trip the retry
        field = prime_field((1 << 31) - 1)
        zero_table = {key: field.zero() for key in seeded_weights(field, 3, 0)}
        hooked = verify_full_rank(
            1,
            weights_for_seed=lambda s: zero_table if s == 0 else seeded_weights(field, 3, s),
        )
        assert hooked.ok
        assert len(hooked.attempts) == 2
        assert not hooked.attempts[0].ok
        checks += sum(len(a.checks) for a in hooked.attempts)
        info["note"] = f"{checks} split checks, retry fixture exercised"


def test_c12_read_bound_sanity_sweep():
    with criterion("C12 read bound sanity sweep", budget=60.0) as info:
        members = odd_variable_corpus()
        assert len(members) >= 20
        for m in members:
            a = m.abp
            pi = a.order if a.order is not None else Permutation.identity(a.num_vars)
            bound = read_lower_bound(a, pi)
            assert stats(a).read >= bound, m.name
        info["note"] = f"{len(members)} odd-variable members"
