"""Seeded inputs, calls and reference checks for the three benchmark workloads.

A workload is a list of cases.  Each case produces one result (a verdict, a
reduced cut or a rank bound) through the package's public functions and
carries an independent check of that result.  Cases look the functions up
on the module objects at call time, so the tracer in ``spans.py`` sees the
calls when it wraps those attributes.

Two seeds shape the inputs.  The corpus seed picks the programs
(``standard_corpus``), exactly as the test suite does.  The workload seed
draws an isomorphic presentation of them: fresh node names and a shuffled
edge list.  Requests follow corpus order.  Every workload seed asks for
the same arithmetic, so figures from different workload seeds are
comparable, while the bytes the program receives differ from seed to seed.
Relabelling variables would also be isomorphic, but it moves the cost of
``SparsePoly.compose`` by up to a factor of two per member (the prefix
cache follows variable indices), so it is left out.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Callable

# F_3 is too small for the level-1 grid, so hitset lifts it to F_9.
HITSET_PRIMES = (10007, 3)


@dataclass
class Case:
    """One result: ``run(scratch)`` computes it, ``check(out)`` verifies it.

    ``scratch`` is a dict shared by the cases of one pass; structure cases
    use it to obliviate each program once per pass.
    """

    label: str
    run: Callable[[dict], Any]
    check: Callable[[Any], bool]


@dataclass
class Workload:
    name: str
    cases: list[Case]
    programs: list  # Abp inputs, fingerprinted
    sizes: dict
    corpus_seed: int = 0
    seed: int = 0


def present(a, rng: random.Random):
    """Isomorphic copy of a program: new node names, shuffled edge list.

    Level membership and the order of nodes inside each level are kept, so
    every algorithm does the same work on the copy up to the order of sums.
    """
    from oabp.abp import Abp, Edge

    nodes = [v for lvl in a.levels for v in lvl]
    ids = rng.sample(range(len(nodes)), len(nodes))
    name = {v: f"q{i}" for v, i in zip(nodes, ids)}
    edges = [Edge(name[e.src], name[e.dst], e.label) for e in a.edges]
    rng.shuffle(edges)
    levels = tuple(tuple(name[v] for v in lvl) for lvl in a.levels)
    return Abp(a.field, a.num_vars, levels, tuple(edges), a.order)


def over_prime(a, field):
    """The same program with its integer constants reduced into F_p."""
    from oabp.abp import Abp, ConstLabel, Edge

    edges = []
    for e in a.edges:
        label = e.label
        if isinstance(label, ConstLabel):
            if label.value.denominator != 1:
                raise ValueError(f"constant {label.value} is not an integer")
            label = ConstLabel(field.from_int(label.value.numerator))
        edges.append(Edge(e.src, e.dst, label))
    return Abp(field, a.num_vars, a.levels, tuple(edges), a.order)


def build(name: str, corpus_seed: int | None, seed: int) -> Workload:
    """Inputs and reference results of one workload.

    corpus_seed None means the corpus the test suite uses.
    """
    from oabp.corpus import DEFAULT_CORPUS_SEED

    if corpus_seed is None:
        corpus_seed = DEFAULT_CORPUS_SEED
    rng = random.Random(f"{name}:{seed}")
    wl = _BUILDERS[name](corpus_seed, rng)
    wl.corpus_seed, wl.seed = corpus_seed, seed
    return wl


# The builders import the package when called: the runner re-imports it for
# each set-up repetition, and the cases must bind to the latest modules.


def _compose_corpus(corpus_seed: int, rng: random.Random) -> Workload:
    import oabp.abp as abp
    import oabp.corpus as corpus
    import oabp.pit as pit

    cases, programs = [], []
    for m in corpus.standard_corpus(seed=corpus_seed):
        a = present(m.abp, rng)
        zero = abp.expand(a).is_zero
        if zero != m.zero:
            raise AssertionError(f"{m.name}: presentation changed the polynomial")
        want = "ZERO" if zero else "NONZERO"
        programs.append(a)
        cases.append(
            Case(
                m.name,
                lambda scratch, a=a, r=m.read_bound: pit.compose_test(a, r),
                lambda v, want=want: v.verdict == want,
            )
        )
    return Workload(
        "compose_corpus",
        cases,
        programs,
        {"members": len(cases), "fields": [{"kind": "rational"}]},
    )


def _hitset_grid(corpus_seed: int, rng: random.Random) -> Workload:
    import oabp.abp as abp
    import oabp.corpus as corpus
    import oabp.fields as fields
    import oabp.generator as generator
    import oabp.pit as pit
    import oabp.poly as poly

    members = [m for m in corpus.standard_corpus(seed=corpus_seed) if m.abp.num_vars == 2]
    field_list = [fields.rationals()] + [fields.prime_field(p) for p in HITSET_PRIMES]
    cases, programs = [], []
    grid_points = 0
    for m in members:
        base = present(m.abp, rng)
        for f in field_list:
            a = base if f == base.field else over_prime(base, f)
            ref = abp.expand(a)
            k, per_coord, total = pit.seed_grid_size(a.num_vars, m.read_bound, pit.PitOptions())
            needed = max(generator.points_needed(k, m.read_bound), per_coord)
            if f.size() is not None and f.size() < needed:
                # the grid runs over the smallest extension with enough points
                work = fields.extension_field(f.p, fields.min_extension_degree(f.p, needed))
                ref = poly.SparsePoly(work, {mono: work.embed(c) for mono, c in ref.terms.items()})
            grid_points += total
            programs.append(a)
            cases.append(
                Case(
                    f"{m.name}@{f.config.kind}{f.config.p or ''}",
                    lambda scratch, a=a, r=m.read_bound: pit.hitset_test_abp(a, r),
                    lambda v, ref=ref: _hitset_ok(v, ref),
                )
            )
    return Workload(
        "hitset_grid",
        cases,
        programs,
        {
            "members": len(members),
            "grid_points": grid_points,
            "fields": [f.config.to_json() for f in field_list],
        },
    )


def _hitset_ok(verdict, ref) -> bool:
    """ZERO must match the exact expansion; a NONZERO witness must not vanish."""
    if verdict.verdict == "ZERO":
        return ref.is_zero
    if verdict.verdict != "NONZERO" or verdict.witness is None:
        return False
    point = {i + 1: x for i, x in enumerate(verdict.witness)}
    return ref.evaluate(point) != ref.field.zero()


def _structure_sweep(corpus_seed: int, rng: random.Random) -> Workload:
    import oabp.abp as abp
    import oabp.corpus as corpus
    import oabp.families as families
    import oabp.poly as poly
    import oabp.transforms as transforms

    named = [(m.name, m.abp) for m in corpus.standard_corpus(seed=corpus_seed)]
    named += [(f"ryser_{n}", families.ryser_permanent_abp(n)) for n in (4, 5)]
    named.append(("symm_12_4", families.elementary_symmetric_abp(12, 4)))
    cases, programs = [], []
    for label, src in named:
        a = present(src, rng)
        p = abp.expand(a)
        read = abp.stats(a).read
        programs.append(a)
        for v in range(1, a.num_vars + 1):
            dp = p.derivative(v)
            if dp.is_zero:
                continue  # reduce_independent rejects a zero sum
            cases.append(
                Case(
                    f"{label}/d{v}",
                    lambda scratch, a=a, v=v: _reduced_cut(transforms, abp, scratch, a, v),
                    lambda dec, dp=dp, read=read: _cut_ok(poly, dec, dp, read),
                )
            )
    cuts = len(cases)
    for n in range(1, 8):
        fam = families.order_separation_family(n)
        programs.append(fam.abp)
        for kind, order, ok in (
            ("bad", fam.bad_order, lambda b, n=n: b == 2**n),
            ("good", fam.good_order, lambda b: b <= 1),
        ):
            cases.append(
                Case(
                    f"chain_{n}/{kind}",
                    lambda scratch, p=fam.poly, o=order: families.read_lower_bound(p, o),
                    ok,
                )
            )
    for k in range(2, 7):
        a = present(families.elementary_symmetric_abp(2 * k - 1, k), rng)
        programs.append(a)
        cases.append(
            Case(
                f"symm_{2 * k - 1}_{k}",
                lambda scratch, a=a: families.read_lower_bound(a, a.order),
                lambda b, k=k: b == k,
            )
        )
    for n in (1, 2, 3):
        cases.append(
            Case(
                f"full_rank_{n}",
                lambda scratch, n=n: families.verify_full_rank(n),
                lambda rep, n=n: rep.ok
                and all(c.rank == 2**n for c in rep.attempts[-1].checks),
            )
        )
    return Workload(
        "structure_sweep",
        cases,
        programs,
        {"members": len(named), "cuts": cuts, "fields": [{"kind": "rational"}]},
    )


def _reduced_cut(transforms, abp, scratch: dict, a, v: int):
    """C5 pipeline for one variable; obliviates a once per pass."""
    got = scratch.get(id(a))
    if got is None:
        b = transforms.obliviate(a)
        layers = abp.check_oblivious(b).layer_vars
        got = scratch[id(a)] = (b, {x: i for i, x in enumerate(layers) if x is not None})
    b, layer_of = got
    d = transforms.derivative_abp(b, v)
    return transforms.reduce_independent(transforms.cut_decompose(d, layer_of[v] + 1))


def _cut_ok(poly, dec, dp, read: int) -> bool:
    total = poly.SparsePoly.zero(dp.field)
    for left, right in zip(dec.left, dec.right):
        total = total.add(left.mul(right))
    return total == dp and dec.width <= read


_BUILDERS = {
    "compose_corpus": _compose_corpus,
    "hitset_grid": _hitset_grid,
    "structure_sweep": _structure_sweep,
}
WORKLOADS = tuple(_BUILDERS)


def fingerprint(wl: Workload) -> dict:
    """SHA-256 over the canonical form of every input program, in request order."""
    from oabp.serialize import abp_dumps

    h = hashlib.sha256()
    for a in wl.programs:
        h.update(abp_dumps(a).encode())
    h.update("\n".join(c.label for c in wl.cases).encode())
    return {
        "workload": wl.name,
        "sha256": h.hexdigest(),
        "corpus_seed": wl.corpus_seed,
        "seed": wl.seed,
        "results_per_pass": len(wl.cases),
        **wl.sizes,
    }
