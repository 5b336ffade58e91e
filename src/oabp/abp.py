"""Layered algebraic branching programs.

An Abp is a leveled DAG: level 0 is a single source, the last level a single
sink, and every edge runs between consecutive levels.  Edge labels are either
a variable x_i (1-based index) or a field constant.  The program computes the
sum over all source-to-sink paths of the product of edge labels.

Parallel edges are allowed; node ids are opaque strings, unique across the
whole program.  Variable orders are permutations pi of [n] stored both as
the image, pi(i) the rank of x_i, and as the induced variable sequence
x_{pi^-1(1)}, ..., x_{pi^-1(n)}.  An order constrains only the variables
some edge reads, so order inference costs what the edges read plus a heap
pop per variable.

Layer l holds the edges leaving level l, the index check_oblivious reports.
Every level-by-level walk, here and in transforms, groups edges into layers
once per call with ``_layers``, the one grouping, and it is checked:
``_check`` makes validate's checks and groups the edges in one pass, and
``_layers`` raises StructureError listing the problems if there are any, so
every walk refuses a malformed program with validate's text.  evaluate
takes the grouping from a caller that evaluates many points.
``_sweep``, the one dynamic-programming loop, carries
a value from a start node layer by layer to a stop level: along the edges if
that level is later, against them if earlier.  Each edge passes
``transfer(value, label)`` from its near to its far end (None drops it);
contributions meeting at a node combine by ``add(old, new)``; ``each_level``
sees each level reached, up to and including the first level with no value
left, where the walk stops.  It returns the stop level's values by node,
with no entry for a node that nothing reaches.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

from .errors import BudgetError, StructureError
from .fields import Field
from .poly import DEFAULT_TERM_BUDGET, SparsePoly, mono_mul


@dataclass(frozen=True)
class VarLabel:
    index: int


@dataclass(frozen=True)
class ConstLabel:
    value: Any


@dataclass(frozen=True)
class Edge:
    src: str
    dst: str
    label: VarLabel | ConstLabel


class Permutation:
    """Bijection [n] -> [n] (1-based), stored as the image list and as its
    inverse, the variable sequence, both built once in O(n)."""

    __slots__ = ("image", "_sequence")

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        ranks = range(1, n + 1)
        sequence = [0] * n
        for i, j in enumerate(image, start=1):
            if j not in ranks or sequence[j - 1]:
                raise StructureError(f"not a permutation of 1..{n}: {image}")
            sequence[j - 1] = i
        self.image = image
        self._sequence = tuple(sequence)

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def from_sequence(cls, seq: Sequence[int]) -> "Permutation":
        """Permutation whose variable sequence is seq (seq[j-1] has rank j)."""
        image = [0] * len(seq)
        for j, i in enumerate(seq, start=1):
            if not 1 <= i <= len(seq) or image[i - 1]:
                raise StructureError(f"not a variable sequence of 1..{len(seq)}: {seq}")
            image[i - 1] = j
        return cls(tuple(image))

    @property
    def n(self) -> int:
        return len(self.image)

    def rank(self, i: int) -> int:
        """pi(i): position of x_i in the variable sequence."""
        return self.image[i - 1]

    def variable_sequence(self) -> tuple[int, ...]:
        return self._sequence

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.image == other.image

    def __hash__(self) -> int:
        return hash(self.image)

    def __repr__(self) -> str:
        return f"Permutation({list(self.image)})"


@dataclass(frozen=True)
class Abp:
    field: Field
    num_vars: int
    levels: tuple[tuple[str, ...], ...]
    edges: tuple[Edge, ...]
    order: Permutation | None = None

    @property
    def source(self) -> str:
        return self.levels[0][0]

    @property
    def sink(self) -> str:
        return self.levels[-1][0]

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def make_abp(
    field: Field,
    num_vars: int,
    levels: Iterable[Iterable[str]],
    edges: Iterable[tuple[str, str, VarLabel | ConstLabel]] | Iterable[Edge],
    order: Permutation | Sequence[int] | None = None,
) -> Abp:
    """Convenience constructor accepting plain lists and tuples."""
    lv = tuple(tuple(l) for l in levels)
    es = []
    for e in edges:
        if isinstance(e, Edge):
            es.append(e)
        else:
            src, dst, label = e
            es.append(Edge(src, dst, label))
    if order is not None and not isinstance(order, Permutation):
        order = Permutation(order)
    return Abp(field, num_vars, lv, tuple(es), order)


@dataclass(frozen=True)
class AbpStats:
    size: int
    depth: int
    width: int
    reads: dict
    read: int


def validate(a: Abp) -> list[str]:
    """Structural check; returns a list of violations (empty means valid)."""
    return _check(a)[0]


def _check(a: Abp) -> tuple[list[str], list[list[Edge]]]:
    """validate's problems, and the edges of each layer in a.edges order
    (complete only when there are no problems)."""
    problems: list[str] = []
    if len(a.levels) < 2:
        problems.append("need at least two levels (source and sink)")
        return problems, []
    if len(a.levels[0]) != 1:
        problems.append(f"source level has {len(a.levels[0])} nodes, want 1")
    if len(a.levels[-1]) != 1:
        problems.append(f"sink level has {len(a.levels[-1])} nodes, want 1")
    seen: dict[str, int] = {}
    for i, lvl in enumerate(a.levels):
        if not lvl:
            problems.append(f"level {i} is empty")
        for node in lvl:
            if node in seen:
                problems.append(f"node id {node!r} appears in levels {seen[node]} and {i}")
            seen[node] = i
    layers: list[list[Edge]] = [[] for _ in range(a.depth)]
    is_element = a.field.is_element
    for e in a.edges:
        if e.src not in seen or e.dst not in seen:
            problems.append(f"edge {e.src!r}->{e.dst!r} references unknown node")
            continue
        lvl = seen[e.src]
        if seen[e.dst] != lvl + 1:
            problems.append(f"edge {e.src!r}->{e.dst!r} spans levels {lvl}->{seen[e.dst]}")
        else:
            layers[lvl].append(e)
        label = e.label
        if isinstance(label, VarLabel):
            if not 1 <= label.index <= a.num_vars:
                problems.append(
                    f"edge {e.src!r}->{e.dst!r} uses x_{label.index}, "
                    f"but num_vars = {a.num_vars}"
                )
        elif isinstance(label, ConstLabel):
            if not is_element(label.value):
                problems.append(
                    f"edge {e.src!r}->{e.dst!r} constant {label.value!r} "
                    f"is not a field element"
                )
        else:
            problems.append(f"edge {e.src!r}->{e.dst!r} has unknown label type")
    if a.order is not None and a.order.n != a.num_vars:
        problems.append(
            f"declared order is over {a.order.n} variables, program has {a.num_vars}"
        )
    return problems, layers


def stats(a: Abp) -> AbpStats:
    reads: dict[int, int] = {}
    for e in a.edges:
        if isinstance(e.label, VarLabel):
            reads[e.label.index] = reads.get(e.label.index, 0) + 1
    return AbpStats(
        size=sum(len(lvl) for lvl in a.levels),
        depth=a.depth,
        width=max(map(len, a.levels), default=0),
        reads=reads,
        read=max(reads.values(), default=0),
    )


def _layers(a: Abp) -> list[list[Edge]]:
    """The edges of each layer, in a.edges order, for a program that passes
    validate, checked in the same pass; raises StructureError listing
    validate's problems otherwise."""
    problems, layers = _check(a)
    if problems:
        raise StructureError("invalid program: " + "; ".join(problems))
    return layers


def _sweep(
    layers: list[list[Edge]], start: str, value: Any, start_level: int, stop_level: int,
    transfer: Callable, add: Callable, each_level: Callable | None = None,
) -> dict[str, Any]:
    """Values at stop_level of the paths from start; see the module docstring."""
    forward = stop_level >= start_level
    # edges between levels l and l + 1 sit in layer l, whichever way the walk goes
    steps = range(start_level, stop_level) if forward else range(start_level - 1, stop_level - 1, -1)
    vals: dict[str, Any] = {start: value}
    for lvl in steps:
        nxt: dict[str, Any] = {}
        for e in layers[lvl]:
            if forward:
                near, far = e.src, e.dst
            else:
                near, far = e.dst, e.src
            v = vals.get(near)
            if v is None:
                continue
            c = transfer(v, e.label)
            if c is None:
                continue
            old = nxt.get(far)
            nxt[far] = c if old is None else add(old, c)
        vals = nxt
        if each_level is not None:
            each_level(lvl + 1 if forward else lvl, vals)
        if not vals:
            break
    return vals


def _poly_transfer(f: Field) -> Callable:
    """Sweep transfer on polynomials: multiply by the edge label.

    A variable edge only shifts monomials: m -> m * x_i is injective, even
    when m already holds x_i, so no two terms meet, nothing cancels, and no
    field operation runs.
    """

    def transfer(p: SparsePoly, label):
        if p.is_zero:
            return None
        if isinstance(label, VarLabel):
            x = ((label.index, 1),)
            return SparsePoly._from_nonzero(f, {mono_mul(m, x): c for m, c in p.terms.items()})
        return p.scale(label.value)

    return transfer


def check_order(a: Abp, pi: Permutation) -> bool:
    """Does every directed path read distinct variables in increasing pi-rank?

    One forward pass: track, per node, the largest rank seen on any path into
    it; a variable edge must carry a strictly larger rank than that.
    """
    return _respects(a, _layers(a), pi)


def _respects(a: Abp, layers: list[list[Edge]], pi: Permutation) -> bool:
    """check_order on a grouping _layers already made."""
    if pi.n != a.num_vars:
        raise StructureError(
            f"order over {pi.n} variables, program has {a.num_vars}"
        )
    maxrank: dict[str, int] = {node: 0 for lvl in a.levels for node in lvl}
    for layer in layers:
        for e in layer:
            base = maxrank[e.src]
            if isinstance(e.label, VarLabel):
                r = pi.rank(e.label.index)
                if r <= base:
                    return False
                carried = r
            else:
                carried = base
            if carried > maxrank[e.dst]:
                maxrank[e.dst] = carried
    return True


def infer_order(a: Abp) -> Permutation | None:
    """Find some order the program respects, or None.

    Constrains x_i before x_j whenever some path reads x_j right after x_i,
    then sorts the constraints topologically, smallest variable index first.
    Each node keeps only the variables last read on the paths into it, so
    the cost is one step per edge and variable last read at its source, plus
    one heap pop per variable; a variable no edge reads costs only its pop.

    Why adjacent reads suffice: every adjacent pair is a pair "x_i before
    x_j on some path", and the reads between x_i and x_j on such a path
    chain them through adjacent pairs, so both relations have the same
    transitive closure, hence the same topological orders, and the min-heap
    returns the lexicographically least of them either way.  A variable
    read twice on one path closes a cycle (a self-loop when the two reads
    are adjacent), which leaves it unsorted, so the repeat needs no check
    of its own.
    """
    layers = _layers(a)
    pi = _inferred(a, layers)
    # the construction guarantees the order; this checks the construction
    if pi is not None and not _respects(a, layers, pi):  # pragma: no cover
        raise StructureError("inferred order failed verification")
    return pi


def _inferred(a: Abp, layers: list[list[Edge]]) -> Permutation | None:
    """infer_order on a grouping _layers already made, without its final
    check of the order it found."""
    last: dict[str, set[int]] = defaultdict(set)
    succs: dict[int, set[int]] = defaultdict(set)
    indeg: dict[int, int] = defaultdict(int)
    for layer in layers:
        for e in layer:
            if isinstance(e.label, VarLabel):
                j = e.label.index
                for i in last[e.src]:
                    if j not in succs[i]:
                        succs[i].add(j)
                        indeg[j] += 1
                last[e.dst].add(j)
            else:
                last[e.dst] |= last[e.src]
    # Kahn's algorithm with a min-heap for a deterministic result; the
    # ascending list of unconstrained variables is already a heap
    ready = [i for i in range(1, a.num_vars + 1) if i not in indeg]
    sequence: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        sequence.append(i)
        for j in succs.get(i, ()):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(sequence) != a.num_vars:
        return None  # precedence cycle
    return Permutation.from_sequence(sequence)


def resolve_order(a: Abp) -> Permutation:
    """The order a verdict may rely on, checked against the program.

    Takes the declared order, else an inferred one, and raises
    StructureError when there is none or the program does not respect it.
    """
    return _resolved(a, _layers(a))


def _resolved(a: Abp, layers: list[list[Edge]]) -> Permutation:
    """resolve_order on a grouping _layers already made: one order check,
    whether the order was declared or inferred."""
    pi = a.order if a.order is not None else _inferred(a, layers)
    if pi is None:
        raise StructureError("program respects no variable order")
    if not _respects(a, layers, pi):
        raise StructureError(f"program does not respect the order {list(pi.variable_sequence())}")
    return pi


@dataclass(frozen=True)
class ObliviousnessReport:
    ok: bool
    layer_vars: tuple[int | None, ...]  # per layer: its variable, or None
    problem: str | None = None


def check_oblivious(a: Abp) -> ObliviousnessReport:
    """Each layer may use at most one distinct variable across its edges."""
    return _oblivious_report(_layers(a))


def _oblivious_report(layers: list[list[Edge]]) -> ObliviousnessReport:
    """check_oblivious on a grouping _layers already made."""
    layer_vars: list[int | None] = [None] * len(layers)
    for layer, edges in enumerate(layers):
        for e in edges:
            if isinstance(e.label, VarLabel):
                known = layer_vars[layer]
                if known is None:
                    layer_vars[layer] = e.label.index
                elif known != e.label.index:
                    return ObliviousnessReport(
                        False,
                        tuple(layer_vars),
                        f"layer {layer} mixes x_{known} and x_{e.label.index}",
                    )
    return ObliviousnessReport(True, tuple(layer_vars))


def evaluate(a: Abp, point: Sequence[Any], *, layers: list[list[Edge]] | None = None):
    """Value of the program at a point (point[i-1] is the value of x_i);
    layers is _layers(a), from a caller that evaluates many points."""
    if layers is None:
        layers = _layers(a)
    if len(point) != a.num_vars:
        raise StructureError(
            f"point has {len(point)} coordinates, program has {a.num_vars} variables"
        )
    f = a.field
    zero, mul = f.zero(), f.mul

    def transfer(v, label):
        if v == zero:
            return None
        if isinstance(label, VarLabel):
            return mul(v, point[label.index - 1])
        return mul(v, label.value)

    vals = _sweep(layers, a.source, f.one(), 0, a.depth, transfer, f.add)
    return vals.get(a.sink, zero)


def expand(a: Abp, budget: int = DEFAULT_TERM_BUDGET) -> SparsePoly:
    """Exact expansion into a SparsePoly over x-variables.

    Level-by-level dynamic programming on polynomials.  The budget bounds the
    total number of live terms after each level; exceeding it raises instead
    of truncating.
    """
    f = a.field

    def check_budget(lvl_index: int, polys: dict[str, SparsePoly]) -> None:
        live = sum(p.num_terms for p in polys.values())
        if live > budget:
            raise BudgetError(
                f"expansion holds {live} terms at level {lvl_index}, "
                f"budget is {budget}"
            )

    polys = _sweep(
        _layers(a), a.source, SparsePoly.const(f, f.one()), 0, a.depth,
        _poly_transfer(f), SparsePoly.add, check_budget,
    )
    return polys.get(a.sink, SparsePoly.zero(f))


def zero_abp(field: Field, num_vars: int, order: Permutation | None = None) -> Abp:
    """Canonical program for the zero polynomial: two levels, no edges."""
    return Abp(field, num_vars, (("s",), ("t",)), (), order)


def prune(a: Abp) -> Abp:
    """Drop nodes that lie on no source-to-sink path.

    If nothing connects source to sink the canonical zero program is
    returned (the polynomial is the empty sum either way).
    """
    return _pruned(a, _layers(a), a.edges)


def _pruned(a: Abp, layers: list[list[Edge]], edges: Iterable[Edge]) -> Abp:
    """prune on a grouping already made: layers give the reachability, and
    the kept edges follow the order of edges (a.edges, or the layers)."""
    fwd: set[str] = {a.source}
    for layer in layers:
        for e in layer:
            if e.src in fwd:
                fwd.add(e.dst)
    bwd: set[str] = {a.sink}
    for layer in reversed(layers):
        for e in layer:
            if e.dst in bwd:
                bwd.add(e.src)
    keep = fwd & bwd
    if a.source not in keep or a.sink not in keep:
        return zero_abp(a.field, a.num_vars, a.order)
    # a source-to-sink path crosses every level, so no kept level is empty
    new_levels = tuple(
        tuple(node for node in lvl if node in keep) for lvl in a.levels
    )
    new_edges = tuple(e for e in edges if e.src in keep and e.dst in keep)
    return Abp(a.field, a.num_vars, new_levels, new_edges, a.order)


def lift_constants(a: Abp, new_field: Field) -> Abp:
    """Reinterpret the program over an extension field via new_field.embed."""
    new_edges = tuple(
        Edge(e.src, e.dst, ConstLabel(new_field.embed(e.label.value)))
        if isinstance(e.label, ConstLabel)
        else e
        for e in a.edges
    )
    return Abp(new_field, a.num_vars, a.levels, new_edges, a.order)
