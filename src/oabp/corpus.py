"""Reproducible test corpus of ordered branching programs.

Mixes the named families at small sizes with seeded random ordered programs
and a few members that compute the zero polynomial, all over Q.  Random
members are pruned so that every node lies on a source-to-sink path;
transforms that promise exact read preservation rely on that.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .abp import (
    Abp,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    check_order,
    expand,
    prune,
    stats,
    validate,
)
from .families import (
    elementary_symmetric_abp,
    order_separation_family,
    ryser_permanent_abp,
)
from .fields import Field, rationals

DEFAULT_CORPUS_SEED = 20230817


@dataclass(frozen=True)
class CorpusMember:
    name: str
    abp: Abp
    read_bound: int  # declared class bound; actual read is <= this
    zero: bool | None  # does it compute the zero polynomial?


def random_ordered_abp(field: Field, n: int, r: int, rng: random.Random) -> Abp:
    """Random ordered program: n variables, every variable read at most r times.

    Levels get small random widths; each edge picks a variable whose rank
    exceeds everything on paths into its source (falling back to constants),
    which makes the program ordered by construction.  The result is pruned.
    """
    order = list(range(1, n + 1))
    rng.shuffle(order)
    pi = Permutation(order)
    depth = rng.randint(max(2, n // 2 + 1), n + 3)
    widths = [1] + [rng.randint(1, 3) for _ in range(depth - 1)] + [1]
    names: list[list[str]] = []
    for lvl, w in enumerate(widths):
        names.append([f"n{lvl}_{p}" for p in range(w)])
    reads = {i: 0 for i in range(1, n + 1)}
    maxrank: dict[str, int] = {names[0][0]: 0}
    edges: list[Edge] = []
    consts = [field.from_int(c) for c in (1, 2, -1, 3)]
    for lvl in range(len(widths) - 1):
        here, there = names[lvl], names[lvl + 1]
        targets_hit = set()
        for src in here:
            if src not in maxrank:
                continue
            out_deg = rng.randint(1, min(2, len(there)))
            for dst in rng.sample(there, out_deg):
                targets_hit.add(dst)
                base = maxrank[src]
                candidates = [
                    v for v in range(1, n + 1) if pi.rank(v) > base and reads[v] < r
                ]
                if candidates and rng.random() < 0.7:
                    v = rng.choice(candidates)
                    reads[v] += 1
                    edges.append(Edge(src, dst, VarLabel(v)))
                    carried = pi.rank(v)
                else:
                    edges.append(Edge(src, dst, ConstLabel(rng.choice(consts))))
                    carried = base
                maxrank[dst] = max(maxrank.get(dst, 0), carried)
        for dst in there:
            if dst not in targets_hit:
                src = rng.choice([s for s in here if s in maxrank])
                edges.append(Edge(src, dst, ConstLabel(field.one())))
                maxrank[dst] = max(maxrank.get(dst, 0), maxrank[src])
    a = prune(
        Abp(
            field,
            n,
            tuple(tuple(lvl) for lvl in names),
            tuple(edges),
            pi,
        )
    )
    assert not validate(a) and check_order(a, pi)
    return a


def cancel_pair(a: Abp, suffix: str) -> Abp:
    """Program computing expand(a) - expand(a): always zero, reads doubled."""
    field = a.field
    one = field.one()

    def plus(node: str) -> str:
        return f"{node}_p{suffix}"

    def minus(node: str) -> str:
        return f"{node}_m{suffix}"

    levels = [[f"src{suffix}"]]
    for lvl in a.levels:
        levels.append([plus(v) for v in lvl] + [minus(v) for v in lvl])
    levels.append([f"snk{suffix}"])
    edges = [
        Edge(f"src{suffix}", plus(a.source), ConstLabel(one)),
        Edge(f"src{suffix}", minus(a.source), ConstLabel(field.neg(one))),
        Edge(plus(a.sink), f"snk{suffix}", ConstLabel(one)),
        Edge(minus(a.sink), f"snk{suffix}", ConstLabel(one)),
    ]
    for e in a.edges:
        edges.append(Edge(plus(e.src), plus(e.dst), e.label))
        edges.append(Edge(minus(e.src), minus(e.dst), e.label))
    return Abp(
        field,
        a.num_vars,
        tuple(tuple(lvl) for lvl in levels),
        tuple(edges),
        a.order,
    )


def standard_corpus(seed: int = DEFAULT_CORPUS_SEED) -> list[CorpusMember]:
    """Family members plus 48 random programs per n in {2, 4}, r in {1, 2}.

    Includes a handful of zero members per variable count.  Sizes stay small
    enough that exact expansion and composition are routine.
    """
    field = rationals()
    rng = random.Random(seed)
    out: list[CorpusMember] = []
    out.append(CorpusMember("symm_2_1", elementary_symmetric_abp(2, 1), 1, False))
    out.append(CorpusMember("symm_2_2", elementary_symmetric_abp(2, 2), 2, False))
    out.append(CorpusMember("symm_4_1", elementary_symmetric_abp(4, 1), 1, False))
    out.append(CorpusMember("symm_4_2", elementary_symmetric_abp(4, 2), 2, False))
    ryser2 = ryser_permanent_abp(2)
    out.append(CorpusMember("ryser_2", ryser2, stats(ryser2).read, False))
    for n, r in ((2, 1), (2, 2), (4, 1), (4, 2)):
        for t in range(48):
            a = random_ordered_abp(field, n, r, rng)
            out.append(CorpusMember(f"rand_n{n}_r{r}_{t}", a, r, None))
    # zero members
    for n in (2, 4):
        for t in range(3):
            base = random_ordered_abp(field, n, 1, rng)
            out.append(
                CorpusMember(f"zero_n{n}_{t}", cancel_pair(base, f"{n}_{t}"), 2, True)
            )
        out.append(
            CorpusMember(
                f"zero_const_n{n}",
                Abp(field, n, (("s",), ("t",)), (), Permutation.identity(n)),
                1,
                True,
            )
        )
    # settle unknown zero flags by exact expansion
    settled = []
    for m in out:
        zero = m.zero if m.zero is not None else expand(m.abp).is_zero
        settled.append(CorpusMember(m.name, m.abp, m.read_bound, zero))
    return settled


def odd_variable_corpus() -> list[CorpusMember]:
    """Members with an odd variable count, for middle-split rank checks; the
    random members draw from DEFAULT_CORPUS_SEED + 1."""
    field = rationals()
    rng = random.Random(DEFAULT_CORPUS_SEED + 1)
    out: list[CorpusMember] = []
    for n, k in ((3, 2), (5, 2), (5, 3), (7, 4)):
        a = elementary_symmetric_abp(n, k)
        out.append(CorpusMember(f"symm_{n}_{k}", a, k, False))
    for n in (1, 2, 3):
        fam = order_separation_family(n)
        out.append(CorpusMember(f"chain_{n}", fam.abp, 1, False))
    ryser3 = ryser_permanent_abp(3)
    out.append(CorpusMember("ryser_3", ryser3, stats(ryser3).read, False))
    for n in (3, 5):
        for t in range(6):
            a = random_ordered_abp(field, n, 2, rng)
            out.append(CorpusMember(f"rand_odd_n{n}_{t}", a, 2, False))
    return [
        CorpusMember(m.name, m.abp, m.read_bound, expand(m.abp).is_zero) for m in out
    ]
