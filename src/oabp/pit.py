"""Black-box zero testing for ordered branching programs.

The hitting set covers pi-ordered programs of read r: every path reads its
variables in the order pi, and no variable labels more than r edges.  A ZERO
verdict is sound only when both promises hold.  Both exact modes therefore
pass a program through one gate, ``_working_program``: it resolves and
checks the order, refuses a program that reads a variable more than r
times, sizes the hitset grid, and picks the working field, lifting the
program's constants into the smallest extension with enough points when its
own field is too small.
Each refusal is the same StructureError in both modes.  Resolving the order
refuses a malformed program first, as every layer walk does.

Three modes:

* hitset_test_abp: deterministic.  Evaluates the program on the image of
  the level-k generator over a small grid of seed values; a read-r ordered
  program of n <= 2^k variables vanishes on all grid points iff it is zero
  (see "Why the grid suffices" below).
  hitset_test runs the same grid on a bare oracle, which it cannot inspect,
  so it trusts its caller's order and read promises.
* compose_test: exact symbolic reference.  Gates the program, expands it,
  composes the expansion with the generator components, and checks the
  result for the zero polynomial.  Expensive, but needs no grid.
* random_probe: seeded random evaluations, a cross-check only.  It checks
  neither promise, and its ZERO verdict is probabilistic.  abp_oracle still
  refuses a malformed program.

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

from .abp import Abp, Permutation, _layers, expand, lift_constants, resolve_order, stats
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
from .poly import DEFAULT_TERM_BUDGET
from .transforms import obliviate  # noqa: F401 - a lookup site the benchmark tracer wraps

DEFAULT_GRID_BUDGET = 10**7
DEFAULT_TRIALS = 20
DEFAULT_SAMPLE_SPACE = 100


@dataclass
class PitOptions:
    grid_budget: int = DEFAULT_GRID_BUDGET
    term_budget: int = DEFAULT_TERM_BUDGET
    trials: int = DEFAULT_TRIALS
    seed: int = 0


@dataclass
class PitVerdict:
    verdict: str  # "ZERO" or "NONZERO"
    mode: str  # "hitset", "compose", "random"
    queries: int = 0
    witness: Any = None  # point (hitset/random) or monomial (compose)
    note: str | None = None
    field: Field | None = None  # the working field; a witness point lives in it
    grid: tuple[int, ...] | None = None  # hitset only: points per seed


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
                f"budget is {opts.grid_budget}; compose mode avoids the grid"
            )
    sides = _grid_sides(n, r)
    total = math.prod(sides)
    if total > opts.grid_budget:
        raise BudgetError(
            f"hitset grid needs {'*'.join(map(str, sides))} = {total} points, "
            f"budget is {opts.grid_budget}; compose mode avoids the grid"
        )
    return k, max(sides), total


def _working_program(
    a: Abp, r: int, opts: PitOptions, grid: bool = False
) -> tuple[Abp, Permutation]:
    """The program an exact verdict runs on and the order it respects.

    In this order: resolve and check the variable order, refusing a
    malformed program first; refuse, with StructureError, a program that
    reads a variable more than r times (the hitting set covers neither);
    with ``grid``, size the seed grid, so an over-budget grid is reported
    before any field is chosen; pick a field with enough points for the
    generator and the grid; and lift the program's constants into it when
    it is an extension.
    """
    pi = resolve_order(a)
    read = stats(a).read
    if read > r:
        raise StructureError(f"program reads a variable {read} times, over the read bound {r}")
    needed = points_needed(level_for(a.num_vars), r)
    if grid:
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
    k, per_coord, _total = seed_grid_size(n, r, opts)
    work_field = ensure_field(field, max(points_needed(k, r), per_coord))
    return _query_grid(oracle, pi, r, work_field, work_field is not field)


def compose_test(a: Abp, r: int, opts: PitOptions | None = None) -> PitVerdict:
    """Exact reference test: is the generator composition the zero polynomial?

    Runs the full pipeline: pass the promise gate (validity, order, read
    bound, working field), expand the gated program exactly, and compose it
    with the generator components by rank.  The verdict is whether the
    composition is zero; a NONZERO witness is its least monomial in graded
    order (SparsePoly.least_monomial).  Both are read off compose's packed
    keys, so the composition's terms are never spelled out.
    opts.term_budget bounds the expansion, every composition of the build,
    and the substitution.
    """
    opts = opts or PitOptions()
    prog, pi = _working_program(a, r, opts)
    n = a.num_vars
    k = level_for(n)
    f = expand(prog, budget=opts.term_budget)
    note = None
    if prog.field is not a.field:
        note = f"composed over extension {prog.field.config.to_json()}"
    params = GeneratorParams(k, r, prog.field)
    gen = build_generator(params, budget=opts.term_budget)
    images = {i: gen[pi.rank(i) - 1] for i in range(1, n + 1)}
    composition = f.compose(images, budget=opts.term_budget)
    if composition.is_zero:
        return PitVerdict("ZERO", "compose", note=note, field=prog.field)
    witness = composition.least_monomial()
    return PitVerdict("NONZERO", "compose", witness=witness, note=note, field=prog.field)


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
    opts = opts or PitOptions()
    prog, pi = _working_program(a, r, opts, grid=True)
    return _query_grid(abp_oracle(prog), pi, r, prog.field, prog.field is not a.field)
