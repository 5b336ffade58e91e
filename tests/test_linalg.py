"""Exact rank computation and the incremental span builder."""

import random
from fractions import Fraction

import pytest

from oabp.fields import extension_field, prime_field, rationals
from oabp.linalg import SpanBuilder, matrix_rank
from reference import dense_rank

Q = rationals()


def frac_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def test_rank_hand_cases():
    assert matrix_rank(Q, frac_rows([[1, 0], [0, 1]])) == 2
    assert matrix_rank(Q, frac_rows([[1, 2], [2, 4]])) == 1
    assert matrix_rank(Q, frac_rows([[0, 0], [0, 0]])) == 0
    assert matrix_rank(Q, []) == 0
    assert matrix_rank(Q, frac_rows([[1, 2, 3], [4, 5, 6], [7, 8, 9]])) == 2
    assert matrix_rank(Q, frac_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]])) == 3


def test_rank_over_prime_field():
    F5 = prime_field(5)
    # dependent only in characteristic 5: [2,4,1] = 2*[1,2,3] because 6 = 1
    assert matrix_rank(F5, [[1, 2, 3], [2, 4, 1]]) == 1
    assert matrix_rank(Q, frac_rows([[1, 2, 3], [2, 4, 1]])) == 2
    assert matrix_rank(F5, [[1, 2, 3], [2, 4, 2]]) == 2
    assert matrix_rank(F5, [[0, 0], [0, 1]]) == 1


def test_rank_row_permutation_invariant():
    rng = random.Random(3)
    for _ in range(20):
        rows = [[Fraction(rng.randint(-3, 3)) for _ in range(4)] for _ in range(4)]
        shuffled = rows[:]
        rng.shuffle(shuffled)
        assert matrix_rank(Q, rows) == matrix_rank(Q, shuffled)


def test_rank_bounded_by_dimensions_and_additivity():
    rng = random.Random(4)
    for _ in range(20):
        m = rng.randint(1, 5)
        n = rng.randint(1, 5)
        rows = [[Fraction(rng.randint(-2, 2)) for _ in range(n)] for _ in range(m)]
        r = matrix_rank(Q, rows)
        assert 0 <= r <= min(m, n)
        # appending a linear combination of existing rows never raises rank
        combo = [sum(row[j] for row in rows) for j in range(n)]
        assert matrix_rank(Q, rows + [combo]) == r


def test_span_builder_matches_matrix_rank():
    rng = random.Random(5)
    for trial in range(25):
        n = rng.randint(1, 5)
        rows = [
            {j: Fraction(rng.randint(-2, 2)) for j in range(n) if rng.random() < 0.8}
            for _ in range(rng.randint(1, 6))
        ]
        sb = SpanBuilder(Q)
        kept = 0
        for i, row in enumerate(rows):
            if sb.insert(dict(row), i) is None:
                kept += 1
        dense = [[row.get(j, Fraction(0)) for j in range(n)] for row in rows]
        assert kept == matrix_rank(Q, dense) == dense_rank(Q, dense), f"trial {trial}"


def draw(field, rng):
    """A random element, zero about a third of the time."""
    if rng.random() < 0.35:
        return field.zero()
    size = field.size()
    if size is None:
        return field.from_int(rng.randint(-3, 3))
    return field.element_at(rng.randrange(size))


def shaped_matrices(field, rng):
    """Empty, zero, repeated-row, dependent, wide and tall matrices."""
    zero, one = field.zero(), field.one()
    yield []
    yield [[]]
    yield [[zero] * 3 for _ in range(2)]
    yield [[one, zero], [one, zero], [one, zero]]
    for m, n in [(1, 1), (2, 7), (7, 2), (5, 5), (3, 9), (9, 3), (8, 8)]:
        for _ in range(6):
            rows = [[draw(field, rng) for _ in range(n)] for _ in range(m)]
            if m > 1 and rng.random() < 0.5:
                # a repeated row and a combination of two rows
                i, j = rng.randrange(m), rng.randrange(m)
                c = draw(field, rng)
                rows.append(list(rows[i]))
                rows.append([field.add(a, field.mul(c, b)) for a, b in zip(rows[i], rows[j])])
                rng.shuffle(rows)
            yield rows


@pytest.mark.parametrize(
    "field",
    [Q, prime_field(5), extension_field(3, 2), extension_field(2, 3)],
    ids=["Q", "F5", "F9", "F8"],
)
def test_ranks_match_the_dense_reference(field):
    rng = random.Random(7)
    for rows in shaped_matrices(field, rng):
        want = dense_rank(field, rows)
        snapshot = [list(r) for r in rows]
        assert matrix_rank(field, rows) == want, rows
        assert rows == snapshot  # the input is left as it was
        # negated keys make the builder pivot on the largest column first
        sb = SpanBuilder(field)
        for i, row in enumerate(rows):
            combo = sb.insert({-j: c for j, c in enumerate(row) if c != field.zero()}, i)
            if combo is not None:
                # a dependent row is the reported combination of kept rows
                recon = [field.zero()] * len(row)
                for tag, c in combo.items():
                    recon = [field.add(a, field.mul(c, b)) for a, b in zip(recon, rows[tag])]
                assert recon == row, rows
        assert sb.rank == want, rows


def test_span_builder_combo_reconstructs_vector():
    rng = random.Random(6)
    for _ in range(25):
        n = 4
        sb = SpanBuilder(Q)
        inserted: dict[int, dict] = {}
        for i in range(6):
            vec = {j: Fraction(rng.randint(-2, 2)) for j in range(n)}
            vec = {j: c for j, c in vec.items() if c}
            combo = sb.insert(dict(vec), i)
            if combo is None:
                inserted[i] = vec
                continue
            # the reported combination over kept tags must equal the vector
            recon: dict[int, Fraction] = {}
            for tag, coeff in combo.items():
                for j, c in inserted[tag].items():
                    recon[j] = recon.get(j, Fraction(0)) + coeff * c
            recon = {j: c for j, c in recon.items() if c}
            assert recon == vec


def test_span_builder_zero_vector_is_dependent():
    sb = SpanBuilder(Q)
    assert sb.insert({}, "z") == {}
    assert sb.insert({0: Fraction(1)}, "a") is None
    assert sb.insert({0: Fraction(0)}, "z2") == {}


def test_span_builder_over_prime_field():
    F7 = prime_field(7)
    sb = SpanBuilder(F7)
    assert sb.insert({0: 3, 1: 1}, "a") is None
    assert sb.insert({0: 6, 1: 2}, "b") == {"a": 2}
    assert sb.insert({1: 1}, "c") is None
    combo = sb.insert({0: 3, 1: 5}, "d")
    # 3x+5y = 1*(3x+y) + 4*y
    assert combo == {"a": 1, "c": 4}
