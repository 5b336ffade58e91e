"""Zero testing for ordered branching programs.

The modes cover pi-ordered programs of read r: every path reads its
variables in the order pi, and no variable labels more than r edges.  An
exact verdict is sound only when both promises hold, so every exact mode on
a program passes one gate, ``_gate``, which in this order refuses a
malformed program, resolves and checks the order, and refuses a read bound
below 1 or a program that reads a variable more than r times.  Each refusal
is the same StructureError in every mode.  ``_working_program`` adds what
the generator modes need after the gate: it sizes the hitset grid and picks
the working field, lifting the program's constants into the smallest
extension with enough points when its own field is too small.

Three modes:

* span_test: exact and symbolic, the reference.  A forward span of per-node
  coefficient vectors along the order decides zero at any read and over any
  field, with no expansion, generator, field lift or budget (see its
  docstring).  A NONZERO witness is a monomial with its exact coefficient.
* hitset_test_abp: deterministic.  Evaluates the program on the image of
  the level-k generator over a small grid of seed values; a read-r ordered
  program of n <= 2^k variables vanishes on all grid points iff it is zero
  (see "Why the grid suffices" below).
  hitset_test runs the same grid on a bare oracle, which it cannot inspect,
  so it trusts its caller's order and read promises.
* random_probe: seeded random evaluations, a cross-check only.  It checks
  neither promise, and its ZERO verdict is probabilistic.  abp_oracle still
  refuses a malformed program.

compose_test is the library's audit of the generator theorem itself: it
expands the gated program, composes the expansion with the generator
components under poly.DEFAULT_TERM_BUDGET, and checks the result for the
zero polynomial.

Why the grid suffices.  The source paper shows that f o G_k is nonzero for
every nonzero pi-ordered read-r program f of n <= 2^k variables, where
variable i receives output slot pi.rank(i) of G_k.  It remains to find a
point of the seed space where f o G_k does not vanish:

* Every path of an ordered program reads each variable at most once, so f
  is multilinear.  A monomial of f is a product of distinct slots G_j,
  j <= n, hence deg_s(f o G_k) <= sum_{j <= n} deg_s(G_j) for each seed s.
  generator.seed_degree_bounds bounds the right side by d_s, through a
  recurrence on the structure of G_k that holds over every field.
* Product-grid lemma: a nonzero polynomial g with deg_s(g) <= d_s for every
  seed s does not vanish on all of S_1 x ... x S_m when |S_s| = d_s + 1.
  Induct on m: write g as sum_e g_e * s_m^e with g_e over the other seeds
  and some g_e nonzero; by induction g_e(p) != 0 at some grid point p of the
  other seeds, and then g(p, s_m) is a nonzero univariate polynomial of
  degree <= d_m, which has at most d_m roots, so one of the d_m + 1 values
  in S_m is not a root.

So the grid that gives seed s the first d_s + 1 points of the field's
canonical enumeration is a hitting set, and ZERO after all its points is
exact.  The working field needs max_s(d_s + 1) points for the grid and
points_needed(k, r) for the generator's interpolation nodes.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

from .abp import (
    Abp,
    Edge,
    Permutation,
    VarLabel,
    _layers,
    _resolved,
    expand,
    lift_constants,
    stats,
)
from .errors import BudgetError, FieldError, StructureError
from .fields import (
    Field,
    PrimeField,
    enumerate_points,
    extension_field,
    min_extension_degree,
)
from .generator import (
    GeneratorParams,
    build_generator,
    eval_generator,
    points_needed,
    seed_degree_bounds,
)
from .linalg import SpanBuilder
from .poly import DEFAULT_TERM_BUDGET, mono_mul, mono_sort_key
from .transforms import _const_path_weights
from .transforms import obliviate  # noqa: F401 - a lookup site the benchmark tracer wraps

DEFAULT_GRID_BUDGET = 10**7
DEFAULT_TRIALS = 20
DEFAULT_SAMPLE_SPACE = 100


@dataclass
class PitOptions:
    grid_budget: int = DEFAULT_GRID_BUDGET
    trials: int = DEFAULT_TRIALS
    seed: int = 0


@dataclass
class PitVerdict:
    verdict: str  # "ZERO" or "NONZERO"
    mode: str  # "span", "hitset", "compose", "random"
    queries: int = 0
    # a point (hitset, random), a seed monomial (compose), or a program
    # monomial with its coefficient (span)
    witness: Any = None
    note: str | None = None
    field: Field | None = None  # the working field; a witness point lives in it
    grid: tuple[int, ...] | None = None  # hitset only: points per seed
    span_dim: int | None = None  # span only: the largest span dimension


def level_for(n: int) -> int:
    """Smallest k >= 0 with n <= 2^k: 0 for a program over no variables,
    whose level-0 map feeds no slot."""
    if n < 0:
        raise StructureError(f"need a variable count of at least 0, got {n}")
    return max(n - 1, 0).bit_length()


def ensure_field(field: Field, needed: int) -> Field:
    """Return field itself or the smallest prime-power extension with >= needed
    elements; the irreducible search's candidate budget bounds the degree."""
    size = field.size()
    if size is None or size >= needed:
        return field
    if isinstance(field, PrimeField):
        return extension_field(field.p, min_extension_degree(field.p, needed))
    raise FieldError(
        f"cannot extend field of kind {field.config.kind!r}; "
        f"supply a field with at least {needed} elements"
    )


def _grid_sides(n: int, r: int) -> tuple[int, ...]:
    """Points per seed of the hitset grid: d_s + 1 for the per-seed degree
    bounds d_s of seed_degree_bounds."""
    return tuple(d + 1 for d in seed_degree_bounds(level_for(n), r, n))


def seed_grid_size(n: int, r: int, opts: PitOptions) -> tuple[int, int, int]:
    """(k, most points on any seed, total grid size) for the hitset grid;
    BudgetError if the total is over opts.grid_budget.

    The middle entry is what the working field must hold besides the
    generator's own interpolation nodes.
    """
    k = level_for(n)
    floor = 1
    for _ in range(k):  # selector seeds u_1..u_k have bound n: (n+1)^k points or more
        floor *= n + 1
        if floor > opts.grid_budget:
            raise BudgetError(
                f"hitset grid needs at least {n + 1}^{k} points, "
                f"budget is {opts.grid_budget}; span mode needs no grid"
            )
    sides = _grid_sides(n, r)
    total = math.prod(sides)
    if total > opts.grid_budget:
        raise BudgetError(
            f"hitset grid needs {'*'.join(map(str, sides))} = {total} points, "
            f"budget is {opts.grid_budget}; span mode needs no grid"
        )
    return k, max(sides), total


def _gate(a: Abp, layers: list[list[Edge]], r: int) -> Permutation:
    """The order an exact verdict on a program may rely on, once the program
    keeps its promises.

    layers is _layers(a), which has already refused a malformed program.
    Then, in this order: resolve and check the variable order; refuse, with
    StructureError, a read bound below 1 and a program that reads a variable
    more than r times (no mode covers either).
    """
    pi = _resolved(a, layers)
    _check_read_bound(r)
    read = stats(a).read
    if read > r:
        raise StructureError(f"program reads a variable {read} times, over the read bound {r}")
    return pi


def _check_read_bound(r: int) -> None:
    """Refuse a read bound below 1, which no mode covers."""
    if r < 1:
        raise StructureError(f"the read bound must be at least 1, got {r}")


def _working_program(
    a: Abp, r: int, opts: PitOptions | None = None
) -> tuple[Abp, Permutation]:
    """The program a generator verdict runs on and the order it respects.

    After the gate, with ``opts``, size the seed grid, so an over-budget
    grid is reported before any field is chosen; pick a field with enough
    points for the generator and the grid; and lift the program's constants
    into it when it is an extension.
    """
    pi = _gate(a, _layers(a), r)
    needed = points_needed(level_for(a.num_vars), r)
    if opts is not None:
        _k, per_coord, _total = seed_grid_size(a.num_vars, r, opts)
        needed = max(needed, per_coord)
    work_field = ensure_field(a.field, needed)
    if work_field is not a.field:
        a = lift_constants(a, work_field)
    return a, pi


def _query_grid(
    oracle: Callable[[tuple], Any], pi: Permutation, r: int, field: Field, lifted: bool
) -> PitVerdict:
    """Query the oracle on the generator image of each seed grid point, last
    seed moving fastest.  Seed s takes the first d_s + 1 points of the
    field's enumeration.  Output slot j of the generator feeds the variable
    of rank j; with fewer variables than 2^k slots the tail slots are unused.
    The caller has sized the grid (seed_grid_size) and picked the field.
    """
    note = f"evaluated over extension {field.config.to_json()}" if lifted else None
    params = GeneratorParams(level_for(pi.n), r, field)
    sides = _grid_sides(pi.n, r)
    zero = field.zero()
    grid = itertools.product(*(enumerate_points(field, side) for side in sides))
    for queries, seed_point in enumerate(grid, start=1):
        image = eval_generator(params, seed_point)
        point = tuple(image[rank - 1] for rank in pi.image)
        if oracle(point) != zero:
            return PitVerdict("NONZERO", "hitset", queries, point, note, field, sides)
    return PitVerdict("ZERO", "hitset", math.prod(sides), None, note, field, sides)


def hitset_test(
    oracle: Callable[[tuple], Any],
    n: int,
    r: int,
    field: Field,
    pi: Permutation | None = None,
    opts: PitOptions | None = None,
) -> PitVerdict:
    """Deterministic zero test of a bare oracle through generator-image queries.

    The oracle cannot be inspected, so this trusts its caller that it
    computes a pi-ordered program of read at most r; hitset_test_abp checks
    both promises on a program.  The oracle must accept points over
    ``field`` or, when the field is too small, over the extension
    ensure_field picks (the verdict notes the switch).
    """
    opts = opts or PitOptions()
    if pi is None:
        pi = Permutation.identity(n)
    if pi.n != n:
        raise StructureError(f"order over {pi.n} variables, oracle has {n}")
    _check_read_bound(r)
    k, per_coord, _total = seed_grid_size(n, r, opts)
    work_field = ensure_field(field, max(points_needed(k, r), per_coord))
    return _query_grid(oracle, pi, r, work_field, work_field is not field)


def compose_test(a: Abp, r: int) -> PitVerdict:
    """Audit of the generator theorem: is the generator composition zero?

    Runs the full pipeline: pass the promise gate and pick the working
    field, expand the gated program exactly, and compose it with the
    generator components by rank.  The verdict is whether the composition
    is zero; a NONZERO witness is its least monomial in graded order
    (SparsePoly.least_monomial).  Both are read off compose's packed keys,
    so the composition's terms are never spelled out.  DEFAULT_TERM_BUDGET
    bounds the expansion, every composition of the build, and the
    substitution.  span_test decides the same question without any of this.
    """
    prog, pi = _working_program(a, r)
    n = a.num_vars
    k = level_for(n)
    f = expand(prog, budget=DEFAULT_TERM_BUDGET)
    note = None
    if prog.field is not a.field:
        note = f"composed over extension {prog.field.config.to_json()}"
    params = GeneratorParams(k, r, prog.field)
    gen = build_generator(params, budget=DEFAULT_TERM_BUDGET)
    images = {i: gen[pi.rank(i) - 1] for i in range(1, n + 1)}
    composition = f.compose(images, budget=DEFAULT_TERM_BUDGET)
    if composition.is_zero:
        return PitVerdict("ZERO", "compose", note=note, field=prog.field)
    witness = composition.least_monomial()
    return PitVerdict("NONZERO", "compose", witness=witness, note=note, field=prog.field)


def span_test(a: Abp, r: int) -> PitVerdict:
    """Exact zero test by a forward span of coefficient vectors (Raz and
    Shpilka 2005), on the program itself, over its own field.

    Let x_1, ..., x_m be the variables some edge reads, in increasing rank.
    For a monomial M in x_1..x_j and a node v, let c_M[v] be the coefficient
    of M in the sum of the source-to-v paths; c_M is M's coefficient vector.
    An ordered path reads each variable at most once, so f is multilinear
    and each path contributes to exactly one monomial, the set it reads.

    * Start: the only monomial in no variable is 1, and c_1 holds the
      constant-path weights out of the source.
    * Step j, variable x = x_j.  A monomial over x_1..x_j either lacks x or
      is M*x.  A path reading M lacks x, and everything it reads has a lower
      rank, so c_M is unchanged: the A-part is the vector itself.  A path
      reading M*x reads x last, since everything else has a lower rank, and
      reads it once; it splits into a path to an x-edge's tail reading M,
      the x-edge, and a constant-only path from the head.  So c_{M*x}[v] is
      the sum over x-edges u -> w of c_M[u] times the constant-path weight
      from w to v: the B-part, carried over the x-edges and closed along
      constant edges by transforms._const_path_weights.  Both parts are
      linear in c_M, so the vectors of a basis and their B-parts span every
      coefficient vector after the step.
    * Kept coordinates.  After step j only two kinds of coordinate are ever
      read again: the tail of an edge of a later rank, by its step's
      B-part, and the sink, by the verdict.  Every later step is linear and
      reads only kept coordinates, so dropping the others changes no sink
      coefficient, and it keeps the span small.
    * Elimination.  Each step inserts its candidates into one SpanBuilder
      in mono_sort_key order of their monomials and keeps those it finds
      independent, so neither node names nor edge order change what is
      kept.  A kept vector is stored as built, not as its echelon residual,
      so it stays the coefficient vector of its monomial.

    After the last step the kept coordinates are the sink's alone, and f's
    coefficients are the sink coordinates of the spanned vectors.  So f is
    ZERO when no basis vector has a sink coordinate.  Else the verdict is
    NONZERO, and its witness is the least kept monomial under mono_sort_key
    with a nonzero sink coordinate, with that coordinate, its exact
    coefficient in f.  That monomial is f's least one: a dropped candidate
    P is a combination of smaller ones P_i on the kept coordinates, so for
    every S over later variables f's coefficient of P*S is the same
    combination of those of P_i*S, and P_i*S < P*S, since mono_sort_key
    compares the sorted variables after the degree.  No prefix of f's least
    monomial is therefore ever dropped.  span_dim is the largest basis.  The
    cost is O(m * W * E) field operations plus the elimination, for W the
    largest span and E the number of edges.
    """
    layers = _layers(a)
    pi = _gate(a, layers, r)
    f = a.field
    zero, add, mul = f.zero(), f.add, f.mul
    steps: dict[int, list[tuple[Edge, int]]] = {}  # rank -> its edges, each with its layer
    for lvl, layer in enumerate(layers):
        for e in layer:
            if isinstance(e.label, VarLabel):
                steps.setdefault(pi.rank(e.label.index), []).append((e, lvl))
    ranks = sorted(steps)
    keeps = [{a.sink}]  # keeps[j]: the coordinates kept after step j
    for rank in reversed(ranks):
        keeps.append(keeps[-1] | {e.src for e, _ in steps[rank]})
    keeps.reverse()

    def closure(start: str, lvl: int, keep: set) -> dict:
        """Nonzero constant-path weights from start to the kept nodes."""
        weights = _const_path_weights(a, layers, start, lvl)
        return {v: w for v, w in weights.items() if v in keep and w != zero}

    start = closure(a.source, 0, keeps[0])
    basis = [((), start)] if start else []
    span_dim = len(basis)
    for rank, keep in zip(ranks, keeps[1:]):
        x = pi.variable_sequence()[rank - 1]
        heads: dict[str, dict] = {}
        for e, lvl in steps[rank]:
            if e.dst not in heads:
                heads[e.dst] = closure(e.dst, lvl + 1, keep)
        candidates = []
        for mono, vec in basis:
            carried: dict = {}
            for e, _ in steps[rank]:
                c = vec.get(e.src)
                if c is not None:
                    for v, w in heads[e.dst].items():
                        carried[v] = add(carried.get(v, zero), mul(c, w))
            candidates.append((mono, {v: c for v, c in vec.items() if v in keep}))
            candidates.append((mono_mul(mono, ((x, 1),)), carried))
        candidates.sort(key=lambda cand: mono_sort_key(cand[0]))
        span = SpanBuilder(f)
        basis = []
        for mono, vec in candidates:
            vec = {v: c for v, c in vec.items() if c != zero}
            if span.insert(vec, mono) is None:
                basis.append((mono, vec))
        span_dim = max(span_dim, len(basis))
    witnesses = [(mono, vec[a.sink]) for mono, vec in basis if a.sink in vec]
    if not witnesses:
        return PitVerdict("ZERO", "span", field=f, span_dim=span_dim)
    witness = min(witnesses, key=lambda mc: mono_sort_key(mc[0]))
    return PitVerdict("NONZERO", "span", witness=witness, field=f, span_dim=span_dim)


def random_probe(
    oracle: Callable[[tuple], Any],
    n: int,
    field: Field,
    opts: PitOptions | None = None,
) -> PitVerdict:
    """Seeded random evaluations; ZERO here is only probabilistic evidence."""
    opts = opts or PitOptions()
    if opts.trials < 1:
        raise BudgetError(f"random mode needs at least 1 trial, got {opts.trials}")
    rng = random.Random(opts.seed)
    size = field.size()
    space = DEFAULT_SAMPLE_SPACE if size is None else min(DEFAULT_SAMPLE_SPACE, size)
    zero = field.zero()
    for t in range(opts.trials):
        point = tuple(field.element_at(rng.randrange(space)) for _ in range(n))
        if oracle(point) != zero:
            return PitVerdict("NONZERO", "random", t + 1, point, field=field)
    return PitVerdict(
        "ZERO",
        "random",
        queries=opts.trials,
        note=f"probabilistic: {opts.trials} samples from a {space}-point range per coordinate",
        field=field,
    )


def abp_oracle(a: Abp) -> Callable[[tuple], Any]:
    """Evaluation oracle for a program over its own field; the program is
    checked and grouped once, here, not on every query."""
    from .abp import evaluate

    layers = _layers(a)
    return lambda point: evaluate(a, point, layers=layers)


def hitset_test_abp(a: Abp, r: int, opts: PitOptions | None = None) -> PitVerdict:
    """Hitset test driven by a program's own evaluation oracle.

    Passes the program through the promise gate, which also validates it
    and sizes the grid, and queries the gated program's oracle.
    """
    prog, pi = _working_program(a, r, opts or PitOptions())
    return _query_grid(abp_oracle(prog), pi, r, prog.field, prog.field is not a.field)
