"""Named program families and rank-based read lower bounds.

The lower-bound machinery maps a multilinear polynomial and a split of its
variables into y-side and z-side to a 2^n-by-2^n coefficient matrix, kept
as the sparse rows its terms fill; the matrix rank under the split induced
by the middle of a variable order lower bounds the read of any program
computing the polynomial in that order.

Families:
* elementary symmetric polynomials, as a grid-shaped program of read k
* the permanent via the inclusion-exclusion expansion, one branch per subset
* a read-once chain whose rank blows up under the half-swapped order
* a recursively weighted interval family whose derivative matrices have
  full rank under every valid split, for generic weights
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping

from .abp import (
    Abp,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    expand,
    prune,
)
from .errors import BudgetError, StructureError
from .fields import Field, prime_field, rationals
from .linalg import matrix_rank
from .poly import SparsePoly

DEFAULT_WEIGHT_PRIME = (1 << 31) - 1
SUBSET_CAP = 5  # ryser_permanent_abp: largest n (2^n subsets)
INTERVAL_CAP = 15  # full_rank_poly: longest interval
FULL_RANK_ATTEMPTS = 3  # verify_full_rank: seeds tried


@dataclass(frozen=True)
class VarSplit:
    """Disjoint variable lists for the two matrix axes."""

    y_vars: tuple[int, ...]
    z_vars: tuple[int, ...]
    excluded: int | None = None

    def __post_init__(self):
        if len(self.y_vars) != len(self.z_vars):
            raise StructureError("split sides must have equal size")
        overlap = set(self.y_vars) & set(self.z_vars)
        if overlap:
            raise StructureError(f"split sides overlap: {sorted(overlap)}")

    @property
    def n(self) -> int:
        return len(self.y_vars)


def middle_partition(pi: Permutation) -> VarSplit:
    """Split an odd-length order around its middle variable.

    For 2n+1 variables, ranks 1..n go to the y-side, ranks n+2..2n+1 to the
    z-side, and the rank-(n+1) variable is excluded.
    """
    m = pi.n
    if m % 2 == 0:
        raise StructureError(f"middle split needs an odd variable count, got {m}")
    n = (m - 1) // 2
    seq = pi.variable_sequence()
    return VarSplit(seq[:n], seq[n + 1:], excluded=seq[n])


def deriv_matrix(p: SparsePoly, split: VarSplit) -> list[dict[int, Any]]:
    """Coefficient matrix of a multilinear polynomial under a split, as
    sparse rows.

    Row e, column f (bitmask indices, bit i addressing the (i+1)-th listed
    variable) holds the coefficient of the monomial with exactly the y-side
    support e and z-side support f.  One ``{f: coeff}`` dict is returned per
    nonempty row, in increasing e; the zero rows and entries are left out.
    Each term fills its own cell: a multilinear monomial is the set of its
    variables, and when they all lie in the split, that set is e's variables
    together with f's, so no two terms share an (e, f).
    """
    if not p.is_multilinear():
        raise StructureError("coefficient matrix needs a multilinear polynomial")
    y_pos = {v: i for i, v in enumerate(split.y_vars)}
    z_pos = {v: i for i, v in enumerate(split.z_vars)}
    rows: dict[int, dict[int, Any]] = {}
    for mono, coeff in p.terms.items():
        e = f = 0
        for v, _ in mono:
            if v in y_pos:
                e |= 1 << y_pos[v]
            elif v in z_pos:
                f |= 1 << z_pos[v]
            else:
                raise StructureError(f"variable x_{v} is outside the split")
        rows.setdefault(e, {})[f] = coeff
    return [rows[e] for e in sorted(rows)]


def read_lower_bound(target: SparsePoly | Abp, pi: Permutation) -> int:
    """Every program computing the target in order pi reads some variable at
    least this many times.

    Requires an odd variable count and multilinearity; the bound is the rank
    of the middle-split matrix of the derivative with respect to the middle
    variable.  The rank comes from the matrix's sparse rows, so the split
    may have any number of variable pairs.
    """
    p = expand(target) if isinstance(target, Abp) else target
    split = middle_partition(pi)
    return matrix_rank(p.field, deriv_matrix(p.derivative(split.excluded), split))


# ---------------------------------------------------------------------------
# elementary symmetric polynomials
# ---------------------------------------------------------------------------


def elementary_symmetric_abp(n: int, k: int, field: Field | None = None) -> Abp:
    """Grid program for the degree-k elementary symmetric polynomial.

    Node r{i}c{j} carries the degree-i elementary symmetric polynomial in
    x_j..x_n; stepping right skips x_j, stepping down-right multiplies by
    x_j.  Columns are the levels, so layer j reads only x_j: the program is
    oblivious in the identity order with every variable read at most k
    times, and has (k+1)(n-k+1) nodes.
    """
    if not 1 <= k <= n:
        raise StructureError(f"need 1 <= k <= n, got k={k}, n={n}")
    if field is None:
        field = rationals()

    def node(i: int, j: int) -> str:
        return f"r{i}c{j}"

    levels = []
    for j in range(1, n + 2):
        lvl = [
            node(i, j)
            for i in range(k, -1, -1)
            if k - i + 1 <= j <= n - i + 1
        ]
        levels.append(lvl)
    edges = []
    one = field.one()
    for j in range(1, n + 1):
        for i in range(k, -1, -1):
            if not (k - i + 1 <= j <= n - i + 1):
                continue
            if i >= 1 and (k - (i - 1) + 1 <= j + 1 <= n - (i - 1) + 1):
                edges.append(Edge(node(i, j), node(i - 1, j + 1), VarLabel(j)))
            if k - i + 1 <= j + 1 <= n - i + 1:
                edges.append(Edge(node(i, j), node(i, j + 1), ConstLabel(one)))
    a = Abp(
        field,
        n,
        tuple(tuple(l) for l in levels),
        tuple(edges),
        Permutation.identity(n),
    )
    return prune(a)


def brute_elementary_symmetric(field: Field, n: int, k: int) -> SparsePoly:
    """Direct expansion over variable subsets; the independent reference."""
    acc = SparsePoly.zero(field)
    one = field.one()
    for combo in itertools.combinations(range(1, n + 1), k):
        acc = acc.add(SparsePoly(field, {tuple((v, 1) for v in combo): one}))
    return acc


# ---------------------------------------------------------------------------
# permanent via inclusion-exclusion
# ---------------------------------------------------------------------------


def permanent_var(n: int, i: int, j: int) -> int:
    """Variable index of matrix entry (i, j), row-major, 1-based."""
    return (i - 1) * n + j


def ryser_permanent_abp(n: int, field: Field | None = None) -> Abp:
    """Permanent of a symbolic n x n matrix by inclusion-exclusion.

    One branch per column subset S, computing (-1)^|S| times the product
    over rows of the sum of entries outside S.  Every branch walks the same
    n^2 variable layers in row-major order, so the program is oblivious;
    each variable is read once per branch that keeps its column.
    """
    if n < 1:
        raise StructureError(f"need n >= 1, got {n}")
    if n > SUBSET_CAP:
        raise BudgetError(f"permanent program for n={n} has {2**n} branches, cap is n={SUBSET_CAP}")
    if field is None:
        field = rationals()
    one = field.one()
    num_vars = n * n
    subsets = list(itertools.chain.from_iterable(
        itertools.combinations(range(1, n + 1), sz) for sz in range(n + 1)
    ))

    def rail(s: int, i: int, j: int) -> str:
        # product of finished rows, inside row i before column j
        return f"b{s}i{i}j{j}r"

    def coll(s: int, i: int, j: int) -> str:
        # running inner sum of row i, times finished rows
        return f"b{s}i{i}j{j}c"

    levels: list[list[str]] = [["s"]]
    edges: list[Edge] = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            lvl = []
            for s, _ in enumerate(subsets):
                lvl.append(rail(s, i, j))
                lvl.append(coll(s, i, j))
            levels.append(lvl)
    levels.append(["t"])

    for s, subset in enumerate(subsets):
        excluded = set(subset)
        sign = one if len(subset) % 2 == 0 else field.neg(one)
        edges.append(Edge("s", rail(s, 1, 1), ConstLabel(sign)))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                r_here, c_here = rail(s, i, j), coll(s, i, j)
                if j < n:
                    r_next, c_next = rail(s, i, j + 1), coll(s, i, j + 1)
                else:
                    # row finished: the collected sum becomes the next rail
                    r_next = c_next = None
                var = VarLabel(permanent_var(n, i, j))
                if j not in excluded:
                    target = c_next if j < n else (
                        rail(s, i + 1, 1) if i < n else "t"
                    )
                    edges.append(Edge(r_here, target, var))
                if j < n:
                    edges.append(Edge(r_here, r_next, ConstLabel(one)))
                    edges.append(Edge(c_here, c_next, ConstLabel(one)))
                else:
                    target = rail(s, i + 1, 1) if i < n else "t"
                    edges.append(Edge(c_here, target, ConstLabel(one)))
    a = Abp(
        field,
        num_vars,
        tuple(tuple(l) for l in levels),
        tuple(edges),
        Permutation.identity(num_vars),
    )
    return prune(a)


def brute_permanent(field: Field, n: int) -> SparsePoly:
    """Sum over permutations of entry products; the independent reference."""
    acc = SparsePoly.zero(field)
    one = field.one()
    for perm in itertools.permutations(range(1, n + 1)):
        mono = tuple(
            sorted((permanent_var(n, i, j), 1) for i, j in enumerate(perm, start=1))
        )
        acc = acc.add(SparsePoly(field, {mono: one}))
    return acc


# ---------------------------------------------------------------------------
# read-once chain separating variable orders
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OrderSeparation:
    """A read-once program, its friendly order, and an order that forces
    exponential read."""

    abp: Abp
    good_order: Permutation
    bad_order: Permutation

    @cached_property
    def poly(self) -> SparsePoly:
        """The program's expansion, 3^n terms, built on first use only."""
        return expand(self.abp)


def order_separation_family(n: int, field: Field | None = None) -> OrderSeparation:
    """x_1 times the product over i of (x_{2i} + x_{2i+1} + x_{2i} x_{2i+1}).

    Read-once in the identity order.  Under the order that lists the
    even-indexed variables, then x_1, then the odd tail, the middle-split
    matrix of the derivative with respect to x_1 has rank 2^n.
    """
    if n < 1:
        raise StructureError(f"need n >= 1, got {n}")
    if field is None:
        field = rationals()
    one = field.one()
    m = 2 * n + 1
    levels: list[list[str]] = [["s"], ["h0"]]
    edges: list[Edge] = [Edge("s", "h0", VarLabel(1))]
    for i in range(1, n + 1):
        # factor gadget: (1 + x_{2i})(1 + x_{2i+1}) - 1, one edge per variable
        a_node, c_node = f"a{i}", f"c{i}"
        out = f"h{i}"
        prev = f"h{i - 1}"
        levels.append([a_node, c_node])
        levels.append([out])
        edges.append(Edge(prev, a_node, VarLabel(2 * i)))
        edges.append(Edge(prev, a_node, ConstLabel(one)))
        edges.append(Edge(prev, c_node, ConstLabel(one)))
        edges.append(Edge(a_node, out, VarLabel(2 * i + 1)))
        edges.append(Edge(a_node, out, ConstLabel(one)))
        edges.append(Edge(c_node, out, ConstLabel(field.neg(one))))
    good = Permutation.identity(m)
    abp = Abp(field, m, tuple(tuple(l) for l in levels), tuple(edges), good)
    # evens first, then the head variable, then the odds
    bad = Permutation.from_sequence([*range(2, m, 2), *range(1, m + 1, 2)])
    return OrderSeparation(abp, good, bad)


# ---------------------------------------------------------------------------
# recursively weighted full-rank family
# ---------------------------------------------------------------------------


def seeded_weights(field: Field, m: int, seed: int) -> dict[tuple[int, int, int], Any]:
    """Pseudo-random weight table w[i, l, j] for all 1 <= i <= l < j <= m.

    Drawn in lexicographic triple order from a seeded generator, so a table
    is reproducible from (m, seed) alone.
    """
    size = field.size()
    if size is None:
        raise StructureError("weights need a finite field")
    rng = random.Random(seed)
    table = {}
    for i in range(1, m + 1):
        for l in range(i, m + 1):
            for j in range(l + 1, m + 1):
                table[(i, l, j)] = field.element_at(rng.randrange(size))
    return table


def full_rank_poly(
    field: Field,
    lo: int,
    hi: int,
    weights: Mapping[tuple[int, int, int], Any],
) -> SparsePoly:
    """Weighted interval polynomial f[lo, hi] over x_lo..x_hi.

    Empty intervals give 1, singletons x_i.  Longer intervals combine the
    bracket (1 + x_lo x_hi) f[lo+1, hi-1] with weighted split products
    f[lo, l] f[l+1, hi]; even-length intervals restrict the split point to
    even-length left parts, odd-length intervals allow every split.
    """
    if hi - lo + 1 > INTERVAL_CAP:
        raise BudgetError(f"interval length {hi - lo + 1} exceeds cap {INTERVAL_CAP}")
    one = field.one()
    memo: dict[tuple[int, int], SparsePoly] = {}

    def build(i: int, j: int) -> SparsePoly:
        if j < i:
            return SparsePoly.const(field, one)
        got = memo.get((i, j))
        if got is not None:
            return got
        if i == j:
            out = SparsePoly.variable(field, i)
        else:
            bracket = SparsePoly.const(field, one).add(
                SparsePoly.variable(field, i).mul(SparsePoly.variable(field, j))
            )
            out = bracket.mul(build(i + 1, j - 1))
            length = j - i + 1
            if length % 2 == 0:
                splits = [l for l in range(i + 1, j - 1) if (l - i + 1) % 2 == 0]
            else:
                splits = list(range(i, j))
            for l in splits:
                w = weights.get((i, l, j))
                if w is None:
                    raise StructureError(f"missing weight for ({i}, {l}, {j})")
                out = out.add(build(i, l).mul(build(l + 1, j)).scale(w))
        memo[(i, j)] = out
        return out

    return build(lo, hi)


@dataclass
class SplitCheck:
    derivative_var: int
    y_vars: tuple[int, ...]
    rank: int
    expected: int

    @property
    def ok(self) -> bool:
        return self.rank == self.expected


@dataclass
class FullRankAttempt:
    seed: int
    checks: list[SplitCheck]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def deficient(self) -> list[SplitCheck]:
        return [c for c in self.checks if not c.ok]


@dataclass
class FullRankReport:
    n: int
    p: int
    attempts: list[FullRankAttempt]

    @property
    def ok(self) -> bool:
        return bool(self.attempts) and self.attempts[-1].ok


def verify_full_rank(n: int, weights_for_seed=None) -> FullRankReport:
    """Check that every middle-style split of the weighted interval family
    gives a full-rank matrix.

    For m = 2n+1 variables: every derivative variable x_d and every way of
    choosing which n of the remaining 2n variables sit on the y-side must
    yield rank 2^n.  Only the set-split matters: reordering within a side
    permutes rows or columns.  Attempt j takes the weights
    weights_for_seed(j), by default seeded_weights with seed j; a deficient
    attempt (possible for unlucky weights) retries with the next seed,
    seeds 0 .. FULL_RANK_ATTEMPTS - 1 in all, and a final deficient attempt
    raises.
    """
    if n < 1:
        raise StructureError(f"need n >= 1, got {n}")
    m = 2 * n + 1
    if m > 7:
        raise BudgetError(f"exhaustive split sweep supports m <= 7, got {m}")
    field = prime_field(DEFAULT_WEIGHT_PRIME)
    if weights_for_seed is None:
        weights_for_seed = lambda s: seeded_weights(field, m, s)
    expected = 1 << n
    report = FullRankReport(n, DEFAULT_WEIGHT_PRIME, [])
    for attempt in range(FULL_RANK_ATTEMPTS):
        f = full_rank_poly(field, 1, m, weights_for_seed(attempt))
        checks: list[SplitCheck] = []
        for d in range(1, m + 1):
            deriv = f.derivative(d)
            others = [v for v in range(1, m + 1) if v != d]
            for ys in itertools.combinations(others, n):
                zs = tuple(v for v in others if v not in ys)
                split = VarSplit(tuple(ys), zs, excluded=d)
                rank = matrix_rank(field, deriv_matrix(deriv, split))
                checks.append(SplitCheck(d, tuple(ys), rank, expected))
        report.attempts.append(FullRankAttempt(attempt, checks))
        if report.attempts[-1].ok:
            return report
    bad = report.attempts[-1].deficient()
    raise StructureError(
        f"full-rank check failed after {FULL_RANK_ATTEMPTS} attempts; "
        f"{len(bad)} deficient splits in the last one (first: "
        f"d={bad[0].derivative_var}, y={bad[0].y_vars}, rank {bad[0].rank} < {bad[0].expected})"
    )
