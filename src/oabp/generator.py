"""Seed-efficient polynomial map whose image hits every nonzero ordered
branching program of bounded read.

The map G_k over a field F sends l(k) + 2k seed variables to 2^k outputs,
where l(k) = 2rk + 1 for the read bound r.  It is built recursively:

* level 0 is the single coordinate z_1;
* level k+1 duplicates level k, shifts the copy's seeds by a translation
  map T built from Lagrange interpolation bases (T's image contains every
  point with at most r nonzero coordinates), and tags each output slot j
  with u_{k+1} * L_j(v_{k+1}) so single outputs can be bumped independently.

Seed variables are named z1..zl, u1..uk, v1..vk.  The last 2r z-variables
play the role of the translation inputs at the top level.

Both forms of the map share one Lagrange evaluator, _basis_values, over the
barycentric tables of GeneratorParams._basis_tables.  eval_generator runs
it on field elements, recursing into both halves and expanding nothing;
each node of its recursion keeps its last half images on the params object
(GeneratorParams._halves), keyed by the seed values they read, so a grid
walk whose fastest seeds are u_k and v_k recomputes only the tags.
build_generator runs it on polynomials, to get the symbolic shift images
and slot tags, and composes the inner map into the second half.
seed_degree_bounds is the one degree bound: it sizes the hitset grid and is
checked against the exact degrees of the built map.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from functools import cache, cached_property
from typing import Sequence

from .errors import StructureError
from .fields import Field, enumerate_points
from .poly import DEFAULT_TERM_BUDGET, SparsePoly


def z_count(k: int, r: int) -> int:
    """Number of z-seeds at level k for read bound r."""
    if k < 0 or r < 1:
        raise StructureError(f"need k >= 0 and r >= 1, got k={k}, r={r}")
    return 2 * r * k + 1


def seed_count(k: int, r: int) -> int:
    return z_count(k, r) + 2 * k


def seed_names(k: int, r: int) -> tuple[str, ...]:
    """Declared seed variables, z-block then u-block then v-block."""
    zs = [f"z{i}" for i in range(1, z_count(k, r) + 1)]
    us = [f"u{i}" for i in range(1, k + 1)]
    vs = [f"v{i}" for i in range(1, k + 1)]
    return tuple(zs + us + vs)


def points_needed(k: int, r: int) -> int:
    return max(seed_count(k, r), 2**k)


@dataclass(frozen=True)
class GeneratorParams:
    """Level k, read bound r and field.  The interpolation nodes, points,
    are the first points_needed(k, r) points of the field's canonical
    enumeration, laid out here: a field too small raises FieldError.
    """

    k: int
    r: int
    field: Field
    points: tuple = dc_field(init=False, compare=False)

    def __post_init__(self) -> None:
        points = enumerate_points(self.field, points_needed(self.k, self.r))
        object.__setattr__(self, "points", points)

    @cached_property
    def _basis_tables(self) -> tuple:
        """Per level j = 1..k, the barycentric tables (see _barycentric) of
        the shift nodes points[:seed_count(j - 1, r)] and of the selector
        nodes points[:2^j]; computed on first use, once per params object.

        Not shared between params objects: a process-wide cache would make
        the field operations of one zero test depend on the tests before it.
        """
        return tuple(
            (
                _barycentric(self.field, self.points[: seed_count(j - 1, self.r)]),
                _barycentric(self.field, self.points[: 2**j]),
            )
            for j in range(1, self.k + 1)
        )

    @cached_property
    def _halves(self) -> list:
        """eval_generator's last half images per node of its recursion, as
        (key, images) or None.  Slot 0 is the top level; the node in slot i
        recurses into slot 2i + 1 for the first half and 2i + 2 for the
        shifted half, so the level-k map has 2^k - 1 slots.  The key is the
        node's seed values other than its own u and v: exactly the values
        its two half images read.

        Not shared between params objects either: a zero test makes its own
        params object, so its queries reuse only its own half images.
        """
        return [None] * (2**self.k - 1)


def _barycentric(field: Field, nodes: Sequence) -> tuple[tuple, tuple]:
    """(negated nodes, barycentric weights w_i = 1 / prod_{j != i}(a_i - a_j))."""
    weights = []
    for i, a_i in enumerate(nodes):
        denom = field.one()
        for j, a_j in enumerate(nodes):
            if j != i:
                denom = field.mul(denom, field.sub(a_i, a_j))
        weights.append(field.inv(denom))
    return tuple(field.neg(a) for a in nodes), tuple(weights)


def _basis_values(field, table: tuple[tuple, tuple], at) -> list:
    """Values of every Lagrange basis polynomial over the table's nodes at a
    point, as w_i * prod_{j != i}(at - a_j): prefix and suffix products of
    the differences, no inversion.

    field only needs add(a, b) and mul(a, b): a Field for element values,
    or the SparsePoly class for polynomial values (the table entries and at
    then SparsePolys)."""
    neg, weights = table
    diffs = [field.add(at, c) for c in neg]
    out = list(weights)
    m = len(out)
    acc = None
    for i in range(1, m):  # times d_0 ... d_{i-1}
        acc = diffs[i - 1] if acc is None else field.mul(acc, diffs[i - 1])
        out[i] = field.mul(out[i], acc)
    acc = None
    for i in range(m - 2, -1, -1):  # times d_{i+1} ... d_{m-1}
        acc = diffs[i + 1] if acc is None else field.mul(acc, diffs[i + 1])
        out[i] = field.mul(out[i], acc)
    return out


@cache
def build_generator(params: GeneratorParams, budget: int = DEFAULT_TERM_BUDGET) -> tuple:
    """Symbolic form of the level-k map: its 2^k output polynomials over the
    seed variables seed_names(k, r).

    Every composition inside the build raises BudgetError once it holds
    more than budget terms.  functools.cache keeps finished maps per
    (k, r, field, budget), so a map built under one budget is never handed
    to a caller with a smaller one; a build that raised leaves nothing behind.
    Feasible for small k only; eval_generator stays cheap at every level.
    """
    return _build(params.k, params.r, params.field, params._basis_tables, budget)


def _build(k: int, r: int, field: Field, tables: tuple, budget: int) -> tuple:
    if k == 0:
        return (SparsePoly.variable(field, "z1"),)
    inner = _build(k - 1, r, field, tables, budget)
    shift_table, select_table = (
        tuple(tuple(SparsePoly.const(field, c) for c in part) for part in table)
        for table in tables[k - 1]
    )
    lc_prev = z_count(k - 1, r)
    inner_names = seed_names(k - 1, r)
    # inner seed j becomes s_j + sum_i y_i * H_j(y_{r+i}), y_i = z_{lc_prev+i}
    images = {name: SparsePoly.variable(field, name) for name in inner_names}
    for i in range(lc_prev + 1, lc_prev + r + 1):
        y = SparsePoly.variable(field, f"z{i}")
        control = SparsePoly.variable(field, f"z{i + r}")
        for name, h in zip(inner_names, _basis_values(SparsePoly, shift_table, control)):
            images[name] = images[name].add(y.mul(h))
    shifted = tuple(comp.compose(images, budget=budget) for comp in inner)
    u_k = SparsePoly.variable(field, f"u{k}")
    tags = _basis_values(SparsePoly, select_table, SparsePoly.variable(field, f"v{k}"))
    return tuple(u_k.mul(tag).add(half) for tag, half in zip(tags, inner + shifted))


def eval_generator(params: GeneratorParams, assignment: Sequence) -> tuple:
    """Value of the level-k map at a seed assignment.

    The assignment lists values for z1..zl, u1..uk, v1..vk in that order.
    Recursive: splits off the top-level translation inputs and selector pair,
    shifts the inner seeds numerically, and combines the two half-evaluations.
    Each node of the recursion reuses its last half images (see
    GeneratorParams._halves) while the seeds they read are unchanged, so a
    walk that moves only u_k and v_k recomputes only the tags.
    """
    k, r, field = params.k, params.r, params.field
    expect = seed_count(k, r)
    if len(assignment) != expect:
        raise StructureError(
            f"level {k} expects {expect} seed values, got {len(assignment)}"
        )
    return _eval(k, r, field, params._basis_tables, params._halves, 0, tuple(assignment))


def _eval(
    k: int, r: int, field: Field, tables: tuple, halves: list, node: int, assignment: tuple
) -> tuple:
    if k == 0:
        return (assignment[0],)
    lc_prev = z_count(k - 1, r)
    lc = z_count(k, r)
    # every seed but u_k and v_k: z1..z_lc, u1..u_{k-1}, v1..v_{k-1}
    key = assignment[: lc + k - 1] + assignment[lc + k : -1]
    memo = halves[node]
    if memo is None or memo[0] != key:
        shift_table = tables[k - 1][0]
        inner = key[:lc_prev] + key[lc:]
        # translation T_j(y) = sum_i y_i * H_j(y_{r+i}), added to inner seed j
        shifted = list(inner)
        for i in range(lc_prev, lc_prev + r):
            y = key[i]
            for j, h in enumerate(_basis_values(field, shift_table, key[i + r])):
                shifted[j] = field.add(shifted[j], field.mul(y, h))
        first = _eval(k - 1, r, field, tables, halves, 2 * node + 1, inner)
        second = _eval(k - 1, r, field, tables, halves, 2 * node + 2, tuple(shifted))
        memo = halves[node] = (key, first + second)
    u_k = assignment[lc + k - 1]
    tags = _basis_values(field, tables[k - 1][1], assignment[-1])
    return tuple(field.add(field.mul(u_k, tag), half) for tag, half in zip(tags, memo[1]))


def _slot_degrees(k: int, r: int) -> tuple[tuple[dict, int], ...]:
    """Per output slot of the level-k map, (per-seed degree bound, total
    degree bound), by the structure of the recursion alone.

    A first-half slot is the inner slot plus the tag u_k * L_j(v_k), of
    degree 1 in u_k, 2^k - 1 in v_k and 2^k in total.  A second-half slot is
    the inner slot after s -> s + sum_i y_i * H_s(y_{r+i}) on every inner
    seed s, where H_s has degree m - 1 for m = seed_count(k - 1, r): a
    monomial of total degree T keeps its inner degrees and gains at most T
    in each y_i, T * (m - 1) in each y_{r+i}, and T * m in total.  The
    second-half slot then gets the tag as well.
    """
    if k == 0:
        return (({"z1": 1}, 1),)
    inner = _slot_degrees(k - 1, r)
    m = seed_count(k - 1, r)
    lc = z_count(k - 1, r)
    width = 2**k
    halves = list(inner)
    for degs, total in inner:
        shifted = dict(degs)
        for i in range(1, r + 1):
            shifted[f"z{lc + i}"] = total
            shifted[f"z{lc + r + i}"] = total * (m - 1)
        halves.append((shifted, total * m))
    slots = []
    for degs, total in halves:
        tagged = dict(degs)
        tagged[f"u{k}"] = 1
        tagged[f"v{k}"] = width - 1
        slots.append((tagged, max(total, width)))
    return tuple(slots)


@cache
def seed_degree_bounds(k: int, r: int, n: int) -> tuple[int, ...]:
    """Bound d_s on deg_s(f o G_k) for every multilinear f in n <= 2^k
    variables, in seed_names(k, r) order: the sum of the per-seed bounds of
    _slot_degrees over the first n output slots, the ones that feed
    variables, so every bound is 0 when n = 0.  Does not depend on the field
    (cancellation only lowers a degree); cached per (k, r, n).
    """
    if not 0 <= n <= 2**k:
        raise StructureError(f"level {k} feeds 0..{2**k} variables, got {n}")
    slots = _slot_degrees(k, r)[:n]
    return tuple(
        sum(degs.get(name, 0) for degs, _ in slots) for name in seed_names(k, r)
    )
