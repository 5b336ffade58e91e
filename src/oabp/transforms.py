"""Structural normal forms for ordered branching programs.

* obliviate: reshape an ordered program so that each layer reads one fixed
  variable, in rank order, without changing the polynomial or any
  per-variable read count; only the variables some edge reads get a layer,
  and each node's carry only the steps from the first an edge feeds it to
  the last it reads.
* derivative_abp: partial derivative of an oblivious program with respect to
  a variable read in a single layer, by rewiring that layer.
* cut_decompose / reduce_independent: split the polynomial at a level into
  sum-of-products form and shrink the two lists to linearly independent ones
  while preserving the sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .abp import (
    Abp,
    ConstLabel,
    Edge,
    VarLabel,
    _layers,
    _oblivious_report,
    _poly_transfer,
    _pruned,
    _resolved,
    _sweep,
    expand,  # noqa: F401 - a lookup site the benchmark tracer wraps
    zero_abp,
)
from .errors import StructureError
from .linalg import SpanBuilder
from .poly import SparsePoly, mono_sort_key, sum_of_products


def _const_path_weights(
    a: Abp, layers: list[list[Edge]], start: str, start_level: int
) -> dict[str, Any]:
    """Weights of constant-only paths from start to every later node."""
    f = a.field
    zero, mul = f.zero(), f.mul

    def transfer(w, label):
        if w == zero or isinstance(label, VarLabel):
            return None
        return mul(w, label.value)

    weights: dict[str, Any] = {start: f.one()}
    _sweep(
        layers, start, f.one(), start_level, a.depth, transfer, f.add,
        lambda _lvl, vals: weights.update(vals),
    )
    return weights


def obliviate(a: Abp) -> Abp:
    """Equivalent oblivious program with one variable layer per rank read.

    Step i is the i-th smallest rank an edge reads under resolve_order's
    order (declared, else inferred), which the output declares.  The output
    interleaves, for each step i, a "carry" level (nodes carry(v, i) for
    original nodes v, each computing the sum of paths into v that use only
    the variables of earlier steps) and a "landing" level (nodes receiving the
    step's variable edges, plus pass-through nodes that ferry carries
    forward).  Constant-only path segments of the original program collapse
    into single constant edges, so each original variable edge maps to
    exactly one new edge: per-variable reads are preserved and the width is
    at most twice the original size.

    Only live carries are laid out.  first_in(v) is the first step at which
    an edge feeds carry(v, .), from the source or from a landing's constant
    fan-out; last_out(v) is the last step at which v reads a variable, and
    one past the last step for the sink.  A ferry carry(v, i) -> carry(v,
    i + 1) exists only for first_in(v) <= i < last_out(v), a fan-out edge
    into carry(v, i) only for i <= last_out(v), and a level lists only the
    nodes some edge touches.  No path sum changes: a carry before first_in
    has no edge into it, so it is structurally zero, and a carry after
    last_out is not the sink and reaches no later variable edge, so nothing
    it holds reaches the sink.  Every variable edge is still emitted, so the
    reads are exact.  The result is the full layout with those edges and
    nodes left out, in the same order, so prune and derivative_abp give the
    same programs on both.
    """
    layers = _layers(a)
    pi = _resolved(a, layers)
    f = a.field
    zero = f.zero()
    nodes = [node for lvl in a.levels for node in lvl]
    position = {v: k for k, v in enumerate(nodes)}

    def fan_out(start: str, start_level: int) -> list[tuple[str, Any]]:
        """Nonzero constant-only path weights from start, in level order."""
        weights = _const_path_weights(a, layers, start, start_level)
        live = [v for v, w in weights.items() if w != zero]
        return [(v, weights[v]) for v in sorted(live, key=position.__getitem__)]

    # constant-only weights from the source and from every variable-edge target
    const_from: dict[str, list[tuple[str, Any]]] = {a.source: fan_out(a.source, 0)}
    var_edges_by_rank: dict[int, list[Edge]] = {}
    for lvl, layer in enumerate(layers):
        for e in layer:
            if isinstance(e.label, VarLabel):
                var_edges_by_rank.setdefault(pi.rank(e.label.index), []).append(e)
                if e.dst not in const_from:
                    const_from[e.dst] = fan_out(e.dst, lvl + 1)
    steps = [var_edges_by_rank[r] for r in sorted(var_edges_by_rank)]
    landings = [list(dict.fromkeys(e.dst for e in step_edges)) for step_edges in steps]
    last = len(steps) + 1

    # the live interval of each carry, and the nodes ferried at each step
    first_in = {v: 1 for v, _ in const_from[a.source]}
    last_out = {a.sink: last}
    for i, (step_edges, dsts) in enumerate(zip(steps, landings), start=1):
        for e in step_edges:
            last_out[e.src] = i
        for d in dsts:
            for v, _ in const_from[d]:
                first_in.setdefault(v, i + 1)
    ferried: list[list[str]] = [[] for _ in range(last)]
    for v in nodes:
        if v in first_in:
            for i in range(first_in[v], last_out.get(v, 0)):
                ferried[i].append(v)

    # ":" never occurs in the step digits, so these names cannot collide
    # across distinct (kind, step, node) triples whatever the input names.
    def carry(v: str, i: int) -> str:
        return f"c{i}:{v}"

    def landing(v: str, i: int) -> str:
        return f"w{i}:{v}"

    def ferry(v: str, i: int) -> str:
        return f"p{i}:{v}"

    levels: list[list[str]] = [["src"]]
    edges: list[Edge] = []
    touched: set[str] = set()  # nodes whose coming carry some edge touches

    def feed(tail: str, i: int, weights: list[tuple[str, Any]]) -> None:
        for v, w in weights:
            if i <= last_out.get(v, 0):
                edges.append(Edge(tail, carry(v, i), ConstLabel(w)))
                touched.add(v)

    one = f.one()
    feed("src", 1, const_from[a.source])
    for i, (step_edges, dsts) in enumerate(zip(steps, landings), start=1):
        touched.update(e.src for e in step_edges)
        levels.append([carry(v, i) for v in sorted(touched, key=position.__getitem__)])
        # landing level: the step's variable edges plus ferries for the carries
        levels.append([landing(d, i) for d in dsts] + [ferry(v, i) for v in ferried[i]])
        for e in step_edges:
            edges.append(Edge(carry(e.src, i), landing(e.dst, i), e.label))
        for v in ferried[i]:
            edges.append(Edge(carry(v, i), ferry(v, i), ConstLabel(one)))
        # next carry level: ferries keep their value, landings fan out along
        # constant-only paths of the original program
        touched.clear()
        touched.update(ferried[i])
        for v in ferried[i]:
            edges.append(Edge(ferry(v, i), carry(v, i + 1), ConstLabel(one)))
        for d in dsts:
            feed(landing(d, i), i + 1, const_from[d])
    # only the sink's carry lives past the last step; it holds the polynomial
    levels.append([carry(a.sink, last)])
    return Abp(f, a.num_vars, tuple(tuple(l) for l in levels), tuple(edges), pi)


def derivative_abp(a: Abp, i: int) -> Abp:
    """Partial derivative of an oblivious program with respect to x_i.

    Requires x_i to be read in exactly one layer (so the program is linear
    in x_i).  In that layer the variable edges become constant-1 edges and
    the constant edges disappear; every other layer is untouched.  If x_i is
    never read the derivative is the zero program; an i outside 1..num_vars
    is refused.  The rewritten grouping is pruned as it stands; no
    intermediate program is built.
    """
    grouped = _layers(a)
    if not 1 <= i <= a.num_vars:
        raise StructureError(f"variable x_{i} out of range 1..{a.num_vars}")
    rep = _oblivious_report(grouped)
    if not rep.ok:
        raise StructureError(f"program is not oblivious: {rep.problem}")
    layers = [l for l, v in enumerate(rep.layer_vars) if v == i]
    if not layers:
        return zero_abp(a.field, a.num_vars, a.order)
    if len(layers) > 1:
        raise StructureError(
            f"x_{i} is read in layers {layers}; single-layer reads required"
        )
    layer = layers[0]
    one = ConstLabel(a.field.one())
    # the x_i edges become constant 1; the constant edges beside them go
    grouped[layer] = [
        Edge(e.src, e.dst, one) for e in grouped[layer] if isinstance(e.label, VarLabel)
    ]
    return _pruned(a, grouped, (e for edges in grouped for e in edges))


@dataclass
class Decomposition:
    """Sum-of-products form: value = sum of left[i] * right[i]."""

    left: list[SparsePoly]
    right: list[SparsePoly]
    cut_level: int | None = None

    @property
    def width(self) -> int:
        return len(self.left)

    def total(self) -> SparsePoly:
        """The represented polynomial, by poly.sum_of_products."""
        if not self.left:
            raise StructureError("empty decomposition")
        return sum_of_products(self.left[0].field, list(zip(self.left, self.right)))


def cut_decompose(a: Abp, level: int) -> Decomposition:
    """Split the polynomial at a level: one (prefix, suffix) pair per node.

    left[i] is the polynomial of the subprogram from the source to the i-th
    node of the level, right[i] the one from that node to the sink.  The cut
    must separate the variables: a variable read both before and after the
    cut is rejected.
    """
    layers = _layers(a)
    if not 0 < level < len(a.levels) - 1:
        raise StructureError(
            f"cut level must be interior (1..{len(a.levels) - 2}), got {level}"
        )
    before_vars = set()
    after_vars = set()
    for lvl, edges in enumerate(layers):
        for e in edges:
            if isinstance(e.label, VarLabel):
                (before_vars if lvl < level else after_vars).add(e.label.index)
    shared = before_vars & after_vars
    if shared:
        raise StructureError(
            f"cut at level {level} splits variable reads: {sorted(shared)}"
        )
    f = a.field
    one = SparsePoly.const(f, f.one())
    transfer = _poly_transfer(f)
    fwd = _sweep(layers, a.source, one, 0, level, transfer, SparsePoly.add)
    bwd = _sweep(layers, a.sink, one, a.depth, level, transfer, SparsePoly.add)
    left = [fwd.get(node, SparsePoly.zero(f)) for node in a.levels[level]]
    right = [bwd.get(node, SparsePoly.zero(f)) for node in a.levels[level]]
    return Decomposition(left, right, cut_level=level)


def reduce_independent(dec: Decomposition) -> Decomposition:
    """Shrink a decomposition so both sides are linearly independent.

    Phase one scans the left list in order, keeping each polynomial that is
    independent of the kept ones and folding every dependent entry into the
    right-hand partners of its representation.  Phase two repeats the scan
    on the updated right list, folding back into the left.  The represented
    sum never changes; the result width is the smaller of the two ranks.
    Monomials enter the span as mono_sort_key values, which compare where
    raw monomials mixing program variables and seed names do not.

    No kept pair has a zero side: phase one keeps independent, so nonzero,
    lefts; phase two drops a zero right as dependent (its combination is
    empty), and each left it keeps is a phase-one left plus multiples of
    the other phase-one lefts, nonzero by their independence.

    Over Q the span eliminates fraction-free on ints (linalg), and the
    combinations it returns, unique since the kept entries are independent,
    are exact Fractions.  Two fault checks bracket the work: a decomposition
    that sums to zero is refused, and the result must represent the same
    polynomial.  Both read Decomposition.total(), which sums the products
    in one accumulator, on ints over Q (poly.sum_of_products).
    """
    if not dec.left or len(dec.left) != len(dec.right):
        raise StructureError("decomposition lists must be nonempty and aligned")
    field = dec.left[0].field
    total = dec.total()
    if total.is_zero:
        raise StructureError("decomposition sums to zero; nothing to reduce")

    def one_phase(
        primary: list[SparsePoly], partner: list[SparsePoly]
    ) -> tuple[list[SparsePoly], list[SparsePoly]]:
        span = SpanBuilder(field)
        kept_primary: list[SparsePoly] = []
        kept_partner: list[SparsePoly] = []
        index_of: dict[int, int] = {}
        for pos, (p, q) in enumerate(zip(primary, partner)):
            combo = span.insert({mono_sort_key(m): c for m, c in p.terms.items()}, tag=pos)
            if combo is None:
                index_of[pos] = len(kept_primary)
                kept_primary.append(p)
                kept_partner.append(q)
            else:
                for tag, c in combo.items():
                    at = index_of[tag]
                    kept_partner[at] = kept_partner[at].add(q.scale(c))
        return kept_primary, kept_partner

    left1, right1 = one_phase(dec.left, dec.right)
    right2, left2 = one_phase(right1, left1)
    out = Decomposition(left2, right2, cut_level=dec.cut_level)
    if out.total() != total:  # a fault check: the reduction keeps the sum
        raise StructureError("reduction changed the represented polynomial")
    return out
