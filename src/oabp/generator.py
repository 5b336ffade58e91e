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
play the role of the translation inputs at the top level.  Evaluation mirrors
the recursion numerically and never expands anything symbolically.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from .errors import FieldError, StructureError
from .fields import Field, enumerate_points
from .poly import SparsePoly

_BUILD_CACHE: dict = {}


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
    """Level k, read bound r, field, and the interpolation point prefix.

    points must hold at least max(l(k)+2k, 2^k) distinct field elements;
    passing None picks the canonical enumeration of that length.
    """

    k: int
    r: int
    field: Field
    points: tuple

    @staticmethod
    def create(k: int, r: int, field: Field, points: Sequence | None = None) -> "GeneratorParams":
        need = points_needed(k, r)
        if points is None:
            points = enumerate_points(field, need)
        points = tuple(points)
        if len(points) < need:
            raise FieldError(
                f"level {k} with read bound {r} needs {need} distinct points, "
                f"got {len(points)}"
            )
        if len(set(points)) != len(points):
            raise FieldError("interpolation points must be distinct")
        return GeneratorParams(k, r, field, points)

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


@dataclass(frozen=True)
class PolyMap:
    """A tuple of polynomials over named seed variables."""

    inputs: tuple[str, ...]
    outputs: tuple[SparsePoly, ...]

    @property
    def arity(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)


def lagrange_basis(field: Field, points: Sequence, i: int, var) -> SparsePoly:
    """i-th (1-based) Lagrange basis polynomial over the points, in var."""
    if not 1 <= i <= len(points):
        raise StructureError(f"basis index {i} out of range 1..{len(points)}")
    alpha_i = points[i - 1]
    num = SparsePoly.const(field, field.one())
    denom = field.one()
    w = SparsePoly.variable(field, var)
    for j, alpha_j in enumerate(points):
        if j == i - 1:
            continue
        num = num.mul(w.sub(SparsePoly.const(field, alpha_j)))
        denom = field.mul(denom, field.sub(alpha_i, alpha_j))
    return num.scale(field.inv(denom))


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


def _basis_values(field: Field, table: tuple[tuple, tuple], at) -> list:
    """Values of every Lagrange basis polynomial over the table's nodes at a
    point, as w_i * prod_{j != i}(at - a_j): prefix and suffix products of
    the differences, no inversion."""
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


def shift_map(k: int, r: int, field: Field, points: Sequence) -> PolyMap:
    """Translation map T: 2r inputs y_1..y_{2r} to l(k)+2k outputs.

    Component j is sum_i y_i * H_j(y_{r+i}) with H the Lagrange basis over
    the first l(k)+2k points.  Fixing y_{r+i} to the j-th point and zeroing
    the other pairs makes the output y_i times the j-th unit vector, so the
    image covers every vector with at most r nonzero entries.
    """
    m = seed_count(k, r)
    if len(points) < m:
        raise FieldError(f"translation map needs {m} points, got {len(points)}")
    base = tuple(points[:m])
    ys = [f"y{i}" for i in range(1, 2 * r + 1)]
    outputs = []
    for j in range(1, m + 1):
        acc = SparsePoly.zero(field)
        for i in range(1, r + 1):
            basis = lagrange_basis(field, base, j, ys[r + i - 1])
            acc = acc.add(basis.mul(SparsePoly.variable(field, ys[i - 1])))
        outputs.append(acc)
    return PolyMap(tuple(ys), tuple(outputs))


def selector_map(k: int, field: Field, points: Sequence) -> PolyMap:
    """Slot tags (u * L_1(v), ..., u * L_{2^k}(v)) over points[:2^k]."""
    if k < 1:
        raise StructureError(f"selector level must be >= 1, got {k}")
    width = 2**k
    if len(points) < width:
        raise FieldError(f"selector needs {width} points, got {len(points)}")
    u = SparsePoly.variable(field, f"u{k}")
    outputs = tuple(
        u.mul(lagrange_basis(field, points[:width], j, f"v{k}"))
        for j in range(1, width + 1)
    )
    return PolyMap((f"u{k}", f"v{k}"), outputs)


def build_generator(params: GeneratorParams) -> PolyMap:
    """Symbolic form of the level-k map; cached per (k, r, field, points).

    Feasible for small k only; evaluation via eval_generator stays cheap at
    every level.
    """
    key = (params.k, params.r, params.field.config, params.points[: points_needed(params.k, params.r)])
    got = _BUILD_CACHE.get(key)
    if got is None:
        got = _build(params.k, params.r, params.field, params.points)
        _BUILD_CACHE[key] = got
    return got


def _build(k: int, r: int, field: Field, points: tuple) -> PolyMap:
    if k == 0:
        return PolyMap(seed_names(0, r), (SparsePoly.variable(field, "z1"),))
    inner = _build(k - 1, r, field, points)
    lc = z_count(k - 1, r)
    shift = shift_map(k - 1, r, field, points)
    # the 2r fresh z-variables feed the translation map
    y_of = {f"y{i}": f"z{lc + i}" for i in range(1, 2 * r + 1)}
    shift_components = [
        SparsePoly(
            field,
            {
                tuple((y_of[v], e) for v, e in mono): c
                for mono, c in comp.terms.items()
            },
        )
        for comp in shift.outputs
    ]
    inner_names = seed_names(k - 1, r)
    images: dict = {}
    for name, t_comp in zip(inner_names, shift_components):
        images[name] = SparsePoly.variable(field, name).add(t_comp)
    shifted = tuple(comp.compose(images) for comp in inner.outputs)
    select = selector_map(k, field, points)
    halves = inner.outputs + shifted
    outputs = tuple(select.outputs[j].add(halves[j]) for j in range(2**k))
    return PolyMap(seed_names(k, r), outputs)


def eval_generator(params: GeneratorParams, assignment: Sequence) -> tuple:
    """Value of the level-k map at a seed assignment.

    The assignment lists values for z1..zl, u1..uk, v1..vk in that order.
    Recursive: splits off the top-level translation inputs and selector pair,
    shifts the inner seeds numerically, and combines the two half-evaluations.
    """
    k, r, field = params.k, params.r, params.field
    expect = seed_count(k, r)
    if len(assignment) != expect:
        raise StructureError(
            f"level {k} expects {expect} seed values, got {len(assignment)}"
        )
    return _eval(k, r, field, params._basis_tables, tuple(assignment))


def _eval(k: int, r: int, field: Field, tables: tuple, assignment: tuple) -> tuple:
    if k == 0:
        return (assignment[0],)
    lc_prev = z_count(k - 1, r)
    lc = z_count(k, r)
    zs = assignment[:lc]
    us = assignment[lc : lc + k]
    vs = assignment[lc + k :]
    inner_assignment = zs[:lc_prev] + us[: k - 1] + vs[: k - 1]
    shift_table, select_table = tables[k - 1]
    # translation T_j(y) = sum_i y_i * H_j(y_{r+i}), added to inner seed j
    shifted_inner = list(inner_assignment)
    for i in range(lc_prev, lc_prev + r):
        y = zs[i]
        for j, h in enumerate(_basis_values(field, shift_table, zs[i + r])):
            shifted_inner[j] = field.add(shifted_inner[j], field.mul(y, h))
    first = _eval(k - 1, r, field, tables, inner_assignment)
    second = _eval(k - 1, r, field, tables, tuple(shifted_inner))
    u_k = us[-1]
    tags = _basis_values(field, select_table, vs[-1])
    return tuple(
        field.add(field.mul(u_k, tag), half) for tag, half in zip(tags, first + second)
    )


@dataclass(frozen=True)
class DegreeBounds:
    component_bound: int
    composition_bound: int


def degree_bounds(k: int, r: int) -> DegreeBounds:
    """Per-variable degree bound for one component, and the safe bound for
    compositions with a multilinear polynomial over 2^k variables.

    The component bound multiplies, over the levels below k, the degree
    growth of one shift step; a multilinear n-variate polynomial composed
    with 2^k components multiplies it by at most 2^k.
    """
    prod = 1
    for j in range(1, k):
        m = seed_count(j, r)
        prod *= m * (m - 1)
    return DegreeBounds(component_bound=prod, composition_bound=(2**k) * prod)


_SEED_DEGREE_CACHE: dict = {}


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


def seed_degree_bounds(k: int, r: int, n: int) -> tuple[int, ...]:
    """Bound d_s on deg_s(f o G_k) for every multilinear f in n <= 2^k
    variables, in seed_names(k, r) order: the sum of the per-seed bounds of
    _slot_degrees over the first n output slots, the ones that feed
    variables.  Does not depend on the field (cancellation only lowers a
    degree); cached per (k, r, n).
    """
    key = (k, r, n)
    got = _SEED_DEGREE_CACHE.get(key)
    if got is None:
        if not 1 <= n <= 2**k:
            raise StructureError(f"level {k} feeds 1..{2**k} variables, got {n}")
        slots = _slot_degrees(k, r)[:n]
        got = tuple(
            sum(degs.get(name, 0) for degs, _ in slots) for name in seed_names(k, r)
        )
        _SEED_DEGREE_CACHE[key] = got
    return got


@dataclass(frozen=True)
class DegreeAudit:
    """Measured (or soundly bounded) per-variable degrees of each component."""

    k: int
    r: int
    exact: bool
    per_component: tuple[dict, ...]

    def max_degree(self) -> int:
        return max(
            (max(d.values(), default=0) for d in self.per_component), default=0
        )


# levels up to this expand symbolically in well under a second
_EXACT_AUDIT_LEVEL = 2


def audit_component_degrees(params: GeneratorParams) -> DegreeAudit:
    """Per-variable degrees of every component of the level-k map.

    Levels <= 2 are expanded and measured exactly.  Level 3 reuses the exact
    level-2 expansion and propagates degrees through the final shift step
    monomial by monomial; that yields an upper bound (sound for checking the
    bound of degree_bounds), since substitution can only cancel, never grow.
    """
    k, r, field, points = params.k, params.r, params.field, params.points
    if k <= _EXACT_AUDIT_LEVEL:
        pm = build_generator(params)
        return DegreeAudit(
            k, r, True, tuple(c.individual_degrees() for c in pm.outputs)
        )
    if k != _EXACT_AUDIT_LEVEL + 1:
        raise StructureError(
            f"degree audit supports levels up to {_EXACT_AUDIT_LEVEL + 1}, got {k}"
        )
    inner = build_generator(GeneratorParams(k - 1, r, field, points))
    lc = z_count(k - 1, r)
    shift = shift_map(k - 1, r, field, points)
    y_of = {f"y{i}": f"z{lc + i}" for i in range(1, 2 * r + 1)}
    # per-variable degrees of each substitution image z_i + T_i
    image_degrees: dict[str, dict[str, int]] = {}
    for name, comp in zip(seed_names(k - 1, r), shift.outputs):
        degs: dict[str, int] = {name: 1}
        for v, e in comp.individual_degrees().items():
            w = y_of[v]
            degs[w] = max(degs.get(w, 0), e)
        image_degrees[name] = degs
    select = selector_map(k, field, points)
    per_component: list[dict] = []
    width = 2**k
    for j in range(width):
        inner_comp = inner.outputs[j % len(inner.outputs)]
        degs = dict(select.outputs[j].individual_degrees())
        if j < len(inner.outputs):
            for v, e in inner_comp.individual_degrees().items():
                degs[v] = max(degs.get(v, 0), e)
        else:
            # composed copy: bound each variable over the monomials
            for mono, _ in inner_comp.terms.items():
                acc: dict[str, int] = {}
                for v, e in mono:
                    for w, d in image_degrees[v].items():
                        acc[w] = acc.get(w, 0) + e * d
                for w, d in acc.items():
                    degs[w] = max(degs.get(w, 0), d)
        per_component.append(degs)
    return DegreeAudit(k, r, False, tuple(per_component))


def y_alias(k: int, r: int, i: int) -> str:
    """Name of the top-level translation input y_i (an alias into the z-block)."""
    if k < 1:
        raise StructureError("level 0 has no translation inputs")
    if not 1 <= i <= 2 * r:
        raise StructureError(f"alias index {i} out of range 1..{2 * r}")
    return f"z{z_count(k - 1, r) + i}"
