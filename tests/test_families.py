"""Named program families and the rank-based read lower bound."""

import math
from fractions import Fraction

import pytest

from oabp.abp import (
    Permutation,
    check_oblivious,
    check_order,
    evaluate,
    expand,
    resolve_order,
    stats,
    validate,
)
from oabp.corpus import odd_variable_corpus
from oabp.errors import BudgetError, StructureError
from oabp.families import (
    DEFAULT_WEIGHT_PRIME,
    VarSplit,
    brute_elementary_symmetric,
    brute_permanent,
    deriv_matrix,
    elementary_symmetric_abp,
    full_rank_poly,
    middle_partition,
    order_separation_family,
    permanent_var,
    read_lower_bound,
    ryser_permanent_abp,
    seeded_weights,
    verify_full_rank,
)
from oabp.fields import prime_field, rationals
from oabp.linalg import matrix_rank
from oabp.poly import SparsePoly
from reference import dense_deriv_matrix, dense_rank

Q = rationals()


# -- splits and coefficient matrices ------------------------------------------


def test_middle_partition_identity():
    split = middle_partition(Permutation.identity(5))
    assert split.y_vars == (1, 2)
    assert split.z_vars == (4, 5)
    assert split.excluded == 3


def test_middle_partition_follows_the_order():
    pi = Permutation.from_sequence([2, 4, 1, 3, 5])
    split = middle_partition(pi)
    assert split.y_vars == (2, 4)
    assert split.excluded == 1
    assert split.z_vars == (3, 5)


def test_middle_partition_needs_odd_count():
    with pytest.raises(StructureError):
        middle_partition(Permutation.identity(4))


def test_var_split_validation():
    with pytest.raises(StructureError):
        VarSplit((1, 2), (3,))
    with pytest.raises(StructureError):
        VarSplit((1, 2), (2, 3))


def test_deriv_matrix_frozen():
    # d(x1x2 + x1x3 + x2x3)/dx2 = x1 + x3
    p = brute_elementary_symmetric(Q, 3, 2).derivative(2)
    rows = deriv_matrix(p, VarSplit((1,), (3,)))
    # row e = 0 holds x3 (column f = 1), row e = 1 holds x1 (column f = 0)
    assert rows == [{1: Fraction(1)}, {0: Fraction(1)}]
    assert matrix_rank(Q, rows) == 2


def test_deriv_matrix_rejections():
    x1sq = SparsePoly(Q, {(("x", 2),): Fraction(1)})
    with pytest.raises(StructureError):
        deriv_matrix(x1sq, VarSplit((1,), (3,)))
    stray = SparsePoly.variable(Q, 4)
    with pytest.raises(StructureError):
        deriv_matrix(stray, VarSplit((1,), (3,)))
    # a split of 11 variable pairs is not refused: the rows are sparse
    assert read_lower_bound(elementary_symmetric_abp(23, 2), Permutation.identity(23)) == 2


def test_sparse_rank_matches_the_dense_reference_on_the_odd_corpus():
    for member in odd_variable_corpus():
        a = member.abp
        pi = resolve_order(a)
        split = middle_partition(pi)
        deriv = expand(a).derivative(split.excluded)
        want = dense_rank(Q, dense_deriv_matrix(deriv, split))
        assert matrix_rank(Q, deriv_matrix(deriv, split)) == want, member.name
        assert read_lower_bound(a, pi) == want, member.name


def test_read_lower_bound_poly_and_program_agree():
    a = elementary_symmetric_abp(5, 2)
    pi = Permutation.identity(5)
    from_program = read_lower_bound(a, pi)
    from_poly = read_lower_bound(expand(a), pi)
    assert from_program == from_poly == 2


def test_read_lower_bound_zero_derivative():
    p = SparsePoly.variable(Q, 1).mul(SparsePoly.variable(Q, 5))
    assert read_lower_bound(p, Permutation.identity(5)) == 0


# -- elementary symmetric ------------------------------------------------------


@pytest.mark.parametrize("n,k", [(2, 1), (3, 2), (4, 2), (5, 3), (6, 4)])
def test_elementary_symmetric_matches_brute_force(n, k):
    a = elementary_symmetric_abp(n, k)
    assert validate(a) == []
    assert check_order(a, Permutation.identity(n))
    assert check_oblivious(a).ok
    assert expand(a) == brute_elementary_symmetric(Q, n, k)
    st = stats(a)
    assert st.read <= k
    ones = tuple(Fraction(1) for _ in range(n))
    assert evaluate(a, ones) == math.comb(n, k)


def test_elementary_symmetric_read_bound_is_k():
    # the middle-split rank witnesses that read k is necessary
    for k in (2, 3):
        m = 2 * k + 1
        a = elementary_symmetric_abp(m, k)
        assert read_lower_bound(a, Permutation.identity(m)) == k
        assert stats(a).read == k


# -- Ryser permanent -----------------------------------------------------------


def test_permanent_var_is_row_major():
    assert permanent_var(3, 1, 1) == 1
    assert permanent_var(3, 2, 3) == 6
    assert permanent_var(3, 3, 3) == 9


@pytest.mark.parametrize("n", [1, 2, 3])
def test_ryser_matches_brute_force(n):
    a = ryser_permanent_abp(n)
    assert validate(a) == []
    assert expand(a) == brute_permanent(Q, n)


def test_ryser_all_ones_counts_permutations():
    for n in (1, 2, 3, 4):
        a = ryser_permanent_abp(n)
        point = tuple(Fraction(1) for _ in range(n * n))
        assert evaluate(a, point) == math.factorial(n)


def test_ryser_stats_frozen():
    sizes = [stats(ryser_permanent_abp(n)).size for n in (1, 2, 3, 4)]
    reads = [stats(ryser_permanent_abp(n)).read for n in (1, 2, 3, 4)]
    assert sizes == [3, 16, 83, 334]
    assert reads == [1, 2, 4, 8]


def test_ryser_subset_cap():
    with pytest.raises(BudgetError, match="n=6 has 64 branches, cap is n=5"):
        ryser_permanent_abp(6)


# -- order separation ----------------------------------------------------------


def ordersep_reference(field, n):
    acc = SparsePoly.variable(field, 1)
    for i in range(1, n + 1):
        a = SparsePoly.variable(field, 2 * i)
        b = SparsePoly.variable(field, 2 * i + 1)
        acc = acc.mul(a.add(b).add(a.mul(b)))
    return acc


@pytest.mark.parametrize("n", [1, 2, 3])
def test_order_separation_program(n):
    fam = order_separation_family(n)
    assert validate(fam.abp) == []
    assert stats(fam.abp).read == 1
    assert fam.poly == expand(fam.abp) == ordersep_reference(Q, n)
    assert check_order(fam.abp, fam.good_order)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6, 7])
def test_order_separation_ranks(n):
    fam = order_separation_family(n)
    assert read_lower_bound(fam.poly, fam.bad_order) == 2**n
    assert read_lower_bound(fam.poly, fam.good_order) <= 1


def test_order_separation_frozen_orders():
    fam = order_separation_family(2)
    assert fam.good_order == Permutation.identity(5)
    assert fam.bad_order == Permutation.from_sequence([2, 4, 1, 3, 5])
    assert fam.bad_order == Permutation((3, 1, 4, 2, 5))


def test_order_separation_needs_positive_n():
    with pytest.raises(StructureError):
        order_separation_family(0)


# -- weighted interval family ----------------------------------------------------


def test_full_rank_poly_base_cases():
    f = prime_field(5)
    one = f.one()
    assert full_rank_poly(f, 1, 1, {}) == SparsePoly.variable(f, 1)
    assert full_rank_poly(f, 2, 1, {}) == SparsePoly.const(f, one)
    expected = SparsePoly.const(f, one).add(
        SparsePoly.variable(f, 2).mul(SparsePoly.variable(f, 3))
    )
    assert full_rank_poly(f, 2, 3, {}) == expected


def test_full_rank_poly_three_vars_explicit_weights():
    f = prime_field(7)
    w = {(1, 1, 3): f.from_int(2), (1, 2, 3): f.from_int(3)}
    got = full_rank_poly(f, 1, 3, w)
    x1, x2, x3 = (SparsePoly.variable(f, i) for i in (1, 2, 3))
    one = SparsePoly.const(f, f.one())
    bracket = one.add(x1.mul(x3)).mul(x2)
    f23 = one.add(x2.mul(x3))
    f12 = one.add(x1.mul(x2))
    expected = bracket.add(x1.mul(f23).scale(f.from_int(2))).add(
        f12.mul(x3).scale(f.from_int(3))
    )
    assert got == expected


def test_full_rank_poly_missing_weight():
    with pytest.raises(StructureError) as info:
        full_rank_poly(prime_field(5), 1, 3, {})
    assert "missing weight" in str(info.value)


def test_full_rank_poly_interval_cap():
    with pytest.raises(BudgetError):
        full_rank_poly(prime_field(5), 1, 17, {})


def test_seeded_weights_reproducible():
    f = prime_field(101)
    a = seeded_weights(f, 5, 3)
    b = seeded_weights(f, 5, 3)
    assert a == b
    assert a != seeded_weights(f, 5, 4)
    small = seeded_weights(f, 3, 0)
    assert set(small) == {(1, 1, 2), (1, 1, 3), (1, 2, 3), (2, 2, 3)}
    with pytest.raises(StructureError):
        seeded_weights(Q, 3, 0)


def test_verify_full_rank_small():
    for n, num_checks in ((1, 6), (2, 30)):
        report = verify_full_rank(n)
        assert report.ok
        assert report.p == DEFAULT_WEIGHT_PRIME
        assert len(report.attempts) == 1
        assert len(report.attempts[0].checks) == num_checks
        assert all(c.rank == 2**n for c in report.attempts[0].checks)


def test_verify_full_rank_retry_then_success():
    field = prime_field(DEFAULT_WEIGHT_PRIME)
    m = 3
    zero_table = {k: field.zero() for k in seeded_weights(field, m, 0)}

    def hook(s):
        return zero_table if s == 0 else seeded_weights(field, m, s)

    report = verify_full_rank(1, weights_for_seed=hook)
    assert report.ok
    assert len(report.attempts) == 2
    assert not report.attempts[0].ok
    assert report.attempts[0].deficient()
    assert report.attempts[1].ok


def test_verify_full_rank_exhaustion():
    field = prime_field(DEFAULT_WEIGHT_PRIME)
    zero_table = {k: field.zero() for k in seeded_weights(field, 3, 0)}
    with pytest.raises(StructureError) as info:
        verify_full_rank(1, weights_for_seed=lambda s: zero_table)
    assert "3 attempts" in str(info.value)


def test_verify_full_rank_size_cap():
    with pytest.raises(BudgetError):
        verify_full_rank(4)
