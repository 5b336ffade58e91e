"""Black-box zero testing for ordered branching programs.

Three modes:

* hitset_test: deterministic.  Evaluates the oracle on the image of the
  level-k generator over a small grid of seed values; a read-r ordered
  program of n <= 2^k variables vanishes on all grid points iff it is zero.
* compose_test: exact symbolic reference.  Expands the program, substitutes
  the generator components, and checks the composition for the zero
  polynomial.  Expensive but unconditional.
* random_probe: seeded random evaluations, a cross-check only; its ZERO
  verdict is probabilistic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Any, Callable

from .abp import Abp, Permutation, expand, lift_constants, resolve_order
from .errors import BudgetError, FieldError, StructureError
from .fields import (
    ExtensionField,
    Field,
    PrimeField,
    enumerate_points,
    extension_field,
    min_extension_degree,
)
from .generator import (
    GeneratorParams,
    build_generator,
    degree_bounds,
    eval_generator,
    points_needed,
    seed_count,
)
from .poly import DEFAULT_TERM_BUDGET, SparsePoly
from .transforms import obliviate

DEFAULT_GRID_BUDGET = 10**7
DEFAULT_SAMPLE_SPACE = 100


@dataclass
class PitOptions:
    grid_budget: int = DEFAULT_GRID_BUDGET
    term_budget: int = DEFAULT_TERM_BUDGET
    auto_extend: bool = True
    extension_cap: int = 32
    trials: int = 20
    seed: int = 0
    sample_space: int = DEFAULT_SAMPLE_SPACE


@dataclass
class PitVerdict:
    verdict: str  # "ZERO" or "NONZERO"
    mode: str  # "hitset", "compose", "random"
    queries: int = 0
    witness: Any = None  # point (hitset/random) or monomial (compose)
    note: str | None = None


def level_for(n: int) -> int:
    """Smallest k with n <= 2^k."""
    if n < 1:
        raise StructureError(f"need at least one variable, got {n}")
    return (n - 1).bit_length()


def required_field_size(n: int, r: int, grid_points: int) -> int:
    k = level_for(n)
    return max(points_needed(k, r), grid_points)


def ensure_field(field: Field, needed: int, opts: PitOptions) -> Field:
    """Return field itself or a prime-power extension with >= needed elements."""
    size = field.size()
    if size is None or size >= needed:
        return field
    if not opts.auto_extend:
        raise FieldError(
            f"field has {size} elements but {needed} distinct points are "
            f"needed; enable extension or pass a larger field"
        )
    if isinstance(field, PrimeField):
        d = min_extension_degree(field.p, needed)
        if d > opts.extension_cap:
            raise FieldError(
                f"extension degree {d} over F_{field.p} exceeds cap {opts.extension_cap}"
            )
        return extension_field(field.p, d)
    raise FieldError(
        f"cannot extend field of kind {field.config.kind!r}; "
        f"supply a field with at least {needed} elements"
    )


def seed_grid_size(n: int, r: int, opts: PitOptions) -> tuple[int, int, int]:
    """(k, points per coordinate, total grid size) for the hitset grid, sized
    by the composition degree bound; BudgetError if over opts.grid_budget."""
    k = level_for(n)
    per_coord = degree_bounds(k, r).composition_bound + 1
    m = seed_count(k, r)
    total = per_coord**m
    if total > opts.grid_budget:
        raise BudgetError(
            f"hitset grid needs {per_coord}^{m} = {total} points, "
            f"budget is {opts.grid_budget}; compose mode avoids the grid"
        )
    return k, per_coord, total


def hitset_test(
    oracle: Callable[[tuple], Any],
    n: int,
    r: int,
    field: Field,
    pi: Permutation | None = None,
    opts: PitOptions | None = None,
) -> PitVerdict:
    """Deterministic zero test through generator-image queries.

    The oracle must accept points over ``field`` or, when the field is too
    small, over the minimal prime-power extension that ensure_field picks
    (the returned verdict notes the switch).  Output slot j of the generator
    feeds the variable of rank j; with fewer variables than 2^k slots the
    tail slots are discarded.
    """
    opts = opts or PitOptions()
    if pi is None:
        pi = Permutation.identity(n)
    if pi.n != n:
        raise StructureError(f"order over {pi.n} variables, oracle has {n}")
    k, per_coord, _total = seed_grid_size(n, r, opts)
    work_field = ensure_field(field, max(points_needed(k, r), per_coord), opts)
    note = None
    if work_field is not field:
        note = f"evaluated over extension {work_field.config.to_json()}"
    params = GeneratorParams.create(k, r, work_field)
    coords = enumerate_points(work_field, per_coord)
    m = seed_count(k, r)
    ranks = [pi.rank(i) for i in range(1, n + 1)]
    zero = work_field.zero()

    # odometer over the seed grid, last coordinate moving fastest
    idx = [0] * m
    queries = 0
    while True:
        seed_point = tuple(coords[t] for t in idx)
        image = eval_generator(params, seed_point)
        point = tuple(image[rank - 1] for rank in ranks)
        queries += 1
        if oracle(point) != zero:
            return PitVerdict(
                "NONZERO", "hitset", queries=queries, witness=point, note=note
            )
        pos = m - 1
        while pos >= 0:
            idx[pos] += 1
            if idx[pos] < per_coord:
                break
            idx[pos] = 0
            pos -= 1
        if pos < 0:
            return PitVerdict("ZERO", "hitset", queries=queries, note=note)


def _embed_poly(p: SparsePoly, new_field: Field, embed) -> SparsePoly:
    return SparsePoly(new_field, {m: embed(c) for m, c in p.terms.items()})


def compose_test(a: Abp, r: int, opts: PitOptions | None = None) -> PitVerdict:
    """Exact reference test: is the generator composition the zero polynomial?

    Runs the full pipeline: resolve and check the variable order, reshape
    the program oblivious (a no-op on the polynomial), expand exactly,
    substitute the generator components by rank, and inspect the result.
    """
    opts = opts or PitOptions()
    pi = resolve_order(a)
    n = a.num_vars
    k = level_for(n)
    oblivious = obliviate(a, pi)
    f = expand(oblivious, budget=opts.term_budget)

    field = a.field
    work_field = ensure_field(field, points_needed(k, r), opts)
    note = None
    if work_field is not field:
        if not isinstance(work_field, ExtensionField):  # pragma: no cover
            raise FieldError("unexpected extension kind")
        f = _embed_poly(f, work_field, work_field.embed)
        note = f"composed over extension {work_field.config.to_json()}"
    params = GeneratorParams.create(k, r, work_field)
    gen = build_generator(params)
    images = {i: gen.outputs[pi.rank(i) - 1] for i in range(1, n + 1)}
    composition = f.compose(images, budget=opts.term_budget)
    if composition.is_zero:
        return PitVerdict("ZERO", "compose", note=note)
    witness_mono = composition.sorted_terms()[0][0]
    return PitVerdict("NONZERO", "compose", witness=witness_mono, note=note)


def random_probe(
    oracle: Callable[[tuple], Any],
    n: int,
    field: Field,
    opts: PitOptions | None = None,
) -> PitVerdict:
    """Seeded random evaluations; ZERO here is only probabilistic evidence."""
    opts = opts or PitOptions()
    rng = random.Random(opts.seed)
    size = field.size()
    space = opts.sample_space if size is None else min(opts.sample_space, size)
    zero = field.zero()
    for t in range(opts.trials):
        point = tuple(field.element_at(rng.randrange(space)) for _ in range(n))
        if oracle(point) != zero:
            return PitVerdict(
                "NONZERO", "random", queries=t + 1, witness=point
            )
    return PitVerdict(
        "ZERO",
        "random",
        queries=opts.trials,
        note=f"probabilistic: {opts.trials} samples from a {space}-point range per coordinate",
    )


def abp_oracle(a: Abp, over: Field | None = None) -> Callable[[tuple], Any]:
    """Evaluation oracle for a program, optionally lifted to an extension."""
    from .abp import evaluate

    prog = a
    if over is not None and over != a.field:
        if isinstance(over, ExtensionField) and isinstance(a.field, PrimeField) and over.p == a.field.p:
            prog = lift_constants(a, over, over.embed)
        else:
            raise FieldError("oracle field mismatch")
    return lambda point: evaluate(prog, point)


def hitset_test_abp(a: Abp, r: int, opts: PitOptions | None = None) -> PitVerdict:
    """Hitset test driven by a program's own evaluation oracle.

    Resolves and checks the variable order, sizes the grid, picks the
    working field (extending the program's field when it is too small),
    lifts the program's constants if needed, and hands the matching oracle
    to hitset_test.
    """
    opts = opts or PitOptions()
    pi = resolve_order(a)
    n = a.num_vars
    k, per_coord, _total = seed_grid_size(n, r, opts)
    work_field = ensure_field(a.field, max(points_needed(k, r), per_coord), opts)
    if work_field == a.field:
        return hitset_test(abp_oracle(a), n, r, work_field, pi=pi, opts=opts)
    oracle = abp_oracle(a, over=work_field)
    verdict = hitset_test(oracle, n, r, work_field, pi=pi, opts=opts)
    return replace(
        verdict, note=f"evaluated over extension {work_field.config.to_json()}"
    )
