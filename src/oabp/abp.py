"""Layered algebraic branching programs.

An Abp is a leveled DAG: level 0 is a single source, the last level a single
sink, and every edge runs between consecutive levels.  Edge labels are either
a variable x_i (1-based index) or a field constant.  The program computes the
sum over all source-to-sink paths of the product of edge labels.

Parallel edges are allowed; node ids are opaque strings, unique across the
whole program.  Variable orders are permutations pi of [n] stored as image
lists: pi(i) is the rank of x_i, and the induced variable sequence is
x_{pi^-1(1)}, ..., x_{pi^-1(n)}.

Layer l holds the edges leaving level l, the index check_oblivious reports;
each level-by-level walk here and in transforms groups edges into layers once
per call.  ``_layers`` is the unchecked grouping, for walks that only read a
program (evaluate, expand, prune, the order checks).  ``_valid_layers`` is
the checked one: ``_check`` makes validate's checks and groups the edges in
one pass, and ``_valid_layers`` raises StructureError listing the problems
if there are any.  The transforms, which build new programs from a
grouping, call it once.
``_sweep``, the one dynamic-programming loop, carries
a value from a start node layer by layer to a stop level: along the edges if
that level is later, against them if earlier.  Each edge passes
``transfer(value, label)`` from its near to its far end (None drops it);
contributions meeting at a node combine by ``add(old, new)``; ``each_level``
sees each level reached.  It returns the stop level's values by node, with
no entry for a node that nothing reaches.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Mapping, Sequence

from .errors import BudgetError, StructureError
from .fields import Field
from .poly import DEFAULT_TERM_BUDGET, SparsePoly


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
    """Bijection [n] -> [n] stored as the image list (1-based)."""

    __slots__ = ("image",)

    def __init__(self, image: Sequence[int]):
        image = tuple(image)
        n = len(image)
        if sorted(image) != list(range(1, n + 1)):
            raise StructureError(f"not a permutation of 1..{n}: {image}")
        self.image = image

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

    def at_rank(self, j: int) -> int:
        """pi^-1(j): the variable whose rank is j."""
        return self.image.index(j) + 1

    def variable_sequence(self) -> tuple[int, ...]:
        inv = [0] * self.n
        for i, j in enumerate(self.image, start=1):
            inv[j - 1] = i
        return tuple(inv)

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

    def node_levels(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for i, lvl in enumerate(self.levels):
            for node in lvl:
                out[node] = i
        return out


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
        width=max(len(lvl) for lvl in a.levels),
        reads=reads,
        read=max(reads.values(), default=0),
    )


def _layers(a: Abp) -> list[list[Edge]]:
    """The edges of each layer, in a.edges order; the walks need every edge
    to join consecutive levels, so others are rejected."""
    node_lv = a.node_levels()
    layers: list[list[Edge]] = [[] for _ in range(a.depth)]
    for e in a.edges:
        lvl = node_lv[e.src]
        if node_lv[e.dst] != lvl + 1:
            raise StructureError(f"edge {e.src!r}->{e.dst!r} skips or leaves the levels")
        layers[lvl].append(e)
    return layers


def _valid_layers(a: Abp) -> list[list[Edge]]:
    """_layers for a program that passes validate, checked in the same pass;
    raises StructureError listing validate's problems otherwise."""
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
    return vals


def _poly_transfer(f: Field, budget: int | None) -> Callable:
    """Sweep transfer on polynomials: multiply by the edge label."""

    def transfer(p: SparsePoly, label):
        if p.is_zero:
            return None
        if isinstance(label, VarLabel):
            return p.mul(SparsePoly.variable(f, label.index), budget=budget)
        return p.scale(label.value)

    return transfer


def check_order(a: Abp, pi: Permutation) -> bool:
    """Does every directed path read distinct variables in increasing pi-rank?

    One forward pass: track, per node, the largest rank seen on any path into
    it; a variable edge must carry a strictly larger rank than that.
    """
    if pi.n != a.num_vars:
        raise StructureError(
            f"order over {pi.n} variables, program has {a.num_vars}"
        )
    maxrank: dict[str, int] = {node: 0 for lvl in a.levels for node in lvl}
    for layer in _layers(a):
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

    Collects precedence constraints i < j whenever x_i can appear before x_j
    on a path, then topologically sorts them, smallest variable index first.
    A variable repeated on one path makes the program unorderable.
    """
    before: dict[str, frozenset[int]] = {
        node: frozenset() for lvl in a.levels for node in lvl
    }
    constraints: set[tuple[int, int]] = set()
    for layer in _layers(a):
        for e in layer:
            carried = before[e.src]
            if isinstance(e.label, VarLabel):
                j = e.label.index
                for i in carried:
                    if i == j:
                        return None  # repeated variable on a path
                    constraints.add((i, j))
                carried = carried | {j}
            before[e.dst] = before[e.dst] | carried
    # Kahn's algorithm with a min-heap for a deterministic result
    n = a.num_vars
    succs: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}
    indeg: dict[int, int] = {i: 0 for i in range(1, n + 1)}
    for i, j in constraints:
        if j not in succs[i]:
            succs[i].add(j)
            indeg[j] += 1
    ready = [i for i in range(1, n + 1) if indeg[i] == 0]
    heapq.heapify(ready)
    sequence: list[int] = []
    while ready:
        i = heapq.heappop(ready)
        sequence.append(i)
        for j in sorted(succs[i]):
            indeg[j] -= 1
            if indeg[j] == 0:
                heapq.heappush(ready, j)
    if len(sequence) != n:
        return None  # precedence cycle
    image = [0] * n
    for rank, i in enumerate(sequence, start=1):
        image[i - 1] = rank
    pi = Permutation(image)
    if not check_order(a, pi):  # pragma: no cover - construction guarantees it
        raise StructureError("inferred order failed verification")
    return pi


def resolve_order(a: Abp, pi: Permutation | None = None) -> Permutation:
    """The order a verdict may rely on, checked against the program.

    Takes pi, else the declared order, else an inferred one, and raises
    StructureError when there is none or the program does not respect it.
    """
    if pi is None:
        pi = a.order if a.order is not None else infer_order(a)
    if pi is None:
        raise StructureError("program respects no variable order")
    if not check_order(a, pi):
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


def evaluate(a: Abp, point: Sequence[Any]):
    """Value of the program at a point (point[i-1] is the value of x_i)."""
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

    vals = _sweep(_layers(a), a.source, f.one(), 0, a.depth, transfer, f.add)
    return vals.get(a.sink, zero)


def expand(a: Abp, budget: int | None = DEFAULT_TERM_BUDGET) -> SparsePoly:
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
        _poly_transfer(f, budget), SparsePoly.add, None if budget is None else check_budget,
    )
    return polys.get(a.sink, SparsePoly.zero(f))


def restrict(a: Abp, assignment: Mapping[int, Any]) -> Abp:
    """Substitute constants for some variables.

    Affected edges become constant edges; edges whose constant is zero are
    removed.  Levels are unchanged.
    """
    f = a.field
    zero = f.zero()
    new_edges: list[Edge] = []
    for e in a.edges:
        if isinstance(e.label, VarLabel) and e.label.index in assignment:
            val = assignment[e.label.index]
            if val == zero:
                continue
            new_edges.append(Edge(e.src, e.dst, ConstLabel(val)))
        else:
            new_edges.append(e)
    return Abp(f, a.num_vars, a.levels, tuple(new_edges), a.order)


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
    new_levels = tuple(
        tuple(node for node in lvl if node in keep) for lvl in a.levels
    )
    if any(not lvl for lvl in new_levels):
        return zero_abp(a.field, a.num_vars, a.order)
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
