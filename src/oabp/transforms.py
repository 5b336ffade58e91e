"""Structural normal forms for ordered branching programs.

* obliviate: reshape an ordered program so that each layer reads one fixed
  variable, in rank order, without changing the polynomial or any
  per-variable read count.
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
    Permutation,
    VarLabel,
    _oblivious_report,
    _poly_transfer,
    _pruned,
    _sweep,
    _valid_layers,
    expand,  # noqa: F401 - a lookup site the benchmark tracer wraps
    resolve_order,
    zero_abp,
)
from .errors import StructureError
from .linalg import SpanBuilder
from .poly import SparsePoly, mono_sort_key


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


def obliviate(a: Abp, pi: Permutation | None = None) -> Abp:
    """Equivalent oblivious program with one variable layer per rank.

    The output interleaves, for each rank i in order, a "carry" level (one
    node per original node v, computing the sum of paths into v that use
    only variables of rank below i) and a "landing" level (nodes receiving
    the rank-i variable edges, plus pass-through nodes that ferry carries
    forward).  Constant-only path segments of the original program collapse
    into single constant edges, so each original variable edge maps to
    exactly one new edge: per-variable reads are preserved and the width is
    at most twice the original size.

    Branches whose collapsed constant weights cancel to zero go dead but
    stay in place, keeping the edge mapping one-to-one.  Apply prune() to
    the result if compactness matters more than exact read counts.
    """
    layers = _valid_layers(a)
    pi = resolve_order(a, pi)
    f = a.field
    zero = f.zero()
    n = a.num_vars
    nodes = [node for lvl in a.levels for node in lvl]

    # constant-only weights from the source and from every variable-edge target
    const_from: dict[str, dict[str, Any]] = {
        a.source: _const_path_weights(a, layers, a.source, 0)
    }
    var_edges_by_rank: dict[int, list[Edge]] = {}
    for lvl, layer in enumerate(layers):
        for e in layer:
            if isinstance(e.label, VarLabel):
                var_edges_by_rank.setdefault(pi.rank(e.label.index), []).append(e)
                if e.dst not in const_from:
                    const_from[e.dst] = _const_path_weights(a, layers, e.dst, lvl + 1)

    # ":" never occurs in the rank digits, so these names cannot collide
    # across distinct (kind, rank, node) triples whatever the input names.
    def carry(v: str, i: int) -> str:
        return f"c{i}:{v}"

    def landing(v: str, i: int) -> str:
        return f"w{i}:{v}"

    def ferry(v: str, i: int) -> str:
        return f"p{i}:{v}"

    levels: list[list[str]] = [["src"]]
    edges: list[Edge] = []

    # source feeds the rank-1 carry level with constant-only path weights
    levels.append([carry(v, 1) for v in nodes])
    for v in nodes:
        w = const_from[a.source].get(v, zero)
        if w != zero:
            edges.append(Edge("src", carry(v, 1), ConstLabel(w)))

    for i in range(1, n + 1):
        # landing level: variable edges of rank i plus ferries for the carries
        landing_dsts: list[str] = []
        seen_landing: set[str] = set()
        for e in var_edges_by_rank.get(i, ()):
            if e.dst not in seen_landing:
                seen_landing.add(e.dst)
                landing_dsts.append(e.dst)
        levels.append([landing(d, i) for d in landing_dsts] + [ferry(v, i) for v in nodes])
        for e in var_edges_by_rank.get(i, ()):
            edges.append(Edge(carry(e.src, i), landing(e.dst, i), e.label))
        one = f.one()
        for v in nodes:
            edges.append(Edge(carry(v, i), ferry(v, i), ConstLabel(one)))
        # next carry level: ferries keep their value, landings fan out along
        # constant-only paths of the original program
        levels.append([carry(v, i + 1) for v in nodes])
        for v in nodes:
            edges.append(Edge(ferry(v, i), carry(v, i + 1), ConstLabel(one)))
        for w_node in landing_dsts:
            for v in nodes:
                cw = const_from[w_node].get(v, zero)
                if cw != zero:
                    edges.append(Edge(landing(w_node, i), carry(v, i + 1), ConstLabel(cw)))

    # the rank-(n+1) carry of the original sink holds the full polynomial;
    # drop the other final carries and the edges that fed them
    keep = carry(a.sink, n + 1)
    dropped = {carry(v, n + 1) for v in nodes} - {keep}
    levels[-1] = [keep]
    edges = [e for e in edges if e.dst not in dropped]
    return Abp(f, n, tuple(tuple(l) for l in levels), tuple(edges), pi)


def derivative_abp(a: Abp, i: int) -> Abp:
    """Partial derivative of an oblivious program with respect to x_i.

    Requires x_i to be read in exactly one layer (so the program is linear
    in x_i).  In that layer the variable edges become constant-1 edges and
    the constant edges disappear; every other layer is untouched.  If x_i is
    never read the derivative is the zero program.  The rewritten grouping is
    pruned as it stands; no intermediate program is built.
    """
    grouped = _valid_layers(a)
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
        if not self.left:
            raise StructureError("empty decomposition")
        acc = SparsePoly.zero(self.left[0].field)
        for p, q in zip(self.left, self.right):
            acc = acc.add(p.mul(q))
        return acc


def cut_decompose(a: Abp, level: int) -> Decomposition:
    """Split the polynomial at a level: one (prefix, suffix) pair per node.

    left[i] is the polynomial of the subprogram from the source to the i-th
    node of the level, right[i] the one from that node to the sink.  The cut
    must separate the variables: a variable read both before and after the
    cut is rejected.
    """
    layers = _valid_layers(a)
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
    transfer = _poly_transfer(f, None)
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
    if out.total() != total:  # pragma: no cover - algebraic identity
        raise StructureError("reduction changed the represented polynomial")
    return out
