"""Independent references the tests compare the package against, and the
presentations of one program that they compare on."""

import heapq

from oabp.abp import (
    Abp,
    ConstLabel,
    Edge,
    Permutation,
    VarLabel,
    _layers,
    _oblivious_report,
    _resolved,
    make_abp,
    prune,
    zero_abp,
)
from oabp.errors import BudgetError, StructureError
from oabp.generator import _basis_values, z_count
from oabp.poly import DEFAULT_TERM_BUDGET, SparsePoly, mono_sort_key, var_sort_key
from oabp.transforms import _const_path_weights


def over_prime(a, field):
    """The same program with its integer constants reduced into F_p."""
    edges = [
        (e.src, e.dst, ConstLabel(field.from_int(int(e.label.value))))
        if isinstance(e.label, ConstLabel)
        else (e.src, e.dst, e.label)
        for e in a.edges
    ]
    return make_abp(field, a.num_vars, a.levels, edges, a.order)


def renamed_reversed(a):
    """The same program with fresh node names and its edge list reversed."""
    nodes = [v for lvl in a.levels for v in lvl]
    name = {v: f"v{len(nodes) - i}" for i, v in enumerate(nodes)}
    return Abp(
        a.field,
        a.num_vars,
        tuple(tuple(name[v] for v in lvl) for lvl in a.levels),
        tuple(Edge(name[e.src], name[e.dst], e.label) for e in reversed(a.edges)),
        a.order,
    )


def renamed_shuffled(a, rng):
    """The same program with fresh node names and its edges in rng's order."""
    nodes = [v for lvl in a.levels for v in lvl]
    fresh = [f"n{i}" for i in range(len(nodes))]
    rng.shuffle(fresh)
    name = dict(zip(nodes, fresh))
    edges = [Edge(name[e.src], name[e.dst], e.label) for e in a.edges]
    rng.shuffle(edges)
    return Abp(
        a.field,
        a.num_vars,
        tuple(tuple(name[v] for v in lvl) for lvl in a.levels),
        tuple(edges),
        a.order,
    )


def layers_reference(a):
    """The edges of each layer, in a.edges order, grouped without any check:
    each edge goes to the layer of its source's level."""
    level_of = {node: i for i, lvl in enumerate(a.levels) for node in lvl}
    layers = [[] for _ in range(a.depth)]
    for e in a.edges:
        layers[level_of[e.src]].append(e)
    return layers


def infer_order_reference(a):
    """infer_order by all predecessors: each node keeps every variable read
    on some path into it, every such variable is constrained before each
    variable read next, a repeat on one path is refused outright, and the
    constraints over all num_vars variables are sorted by Kahn's algorithm
    with a min-heap."""
    before = {node: frozenset() for lvl in a.levels for node in lvl}
    constraints = set()
    for layer in layers_reference(a):
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
    n = a.num_vars
    succs = {i: set() for i in range(1, n + 1)}
    indeg = {i: 0 for i in range(1, n + 1)}
    for i, j in constraints:
        if j not in succs[i]:
            succs[i].add(j)
            indeg[j] += 1
    ready = [i for i in range(1, n + 1) if indeg[i] == 0]
    heapq.heapify(ready)
    sequence = []
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
    return Permutation(image)


def obliviate_reference(a):
    """obliviate with the full layout: a carry and a ferry for every node at
    every step, fan-outs scanned over every node, and the final carries
    other than the sink's dropped at the end."""
    layers = _layers(a)
    pi = _resolved(a, layers)
    f = a.field
    zero = f.zero()
    nodes = [node for lvl in a.levels for node in lvl]
    const_from = {a.source: _const_path_weights(a, layers, a.source, 0)}
    var_edges_by_rank = {}
    for lvl, layer in enumerate(layers):
        for e in layer:
            if isinstance(e.label, VarLabel):
                var_edges_by_rank.setdefault(pi.rank(e.label.index), []).append(e)
                if e.dst not in const_from:
                    const_from[e.dst] = _const_path_weights(a, layers, e.dst, lvl + 1)
    steps = [var_edges_by_rank[r] for r in sorted(var_edges_by_rank)]

    def carry(v, i):
        return f"c{i}:{v}"

    def landing(v, i):
        return f"w{i}:{v}"

    def ferry(v, i):
        return f"p{i}:{v}"

    one = ConstLabel(f.one())
    levels = [["src"], [carry(v, 1) for v in nodes]]
    edges = []
    for v in nodes:
        w = const_from[a.source].get(v, zero)
        if w != zero:
            edges.append(Edge("src", carry(v, 1), ConstLabel(w)))
    for i, step_edges in enumerate(steps, start=1):
        landing_dsts = list(dict.fromkeys(e.dst for e in step_edges))
        levels.append([landing(d, i) for d in landing_dsts] + [ferry(v, i) for v in nodes])
        for e in step_edges:
            edges.append(Edge(carry(e.src, i), landing(e.dst, i), e.label))
        for v in nodes:
            edges.append(Edge(carry(v, i), ferry(v, i), one))
        levels.append([carry(v, i + 1) for v in nodes])
        for v in nodes:
            edges.append(Edge(ferry(v, i), carry(v, i + 1), one))
        for w_node in landing_dsts:
            for v in nodes:
                cw = const_from[w_node].get(v, zero)
                if cw != zero:
                    edges.append(Edge(landing(w_node, i), carry(v, i + 1), ConstLabel(cw)))
    last = len(steps) + 1
    keep = carry(a.sink, last)
    dropped = {carry(v, last) for v in nodes} - {keep}
    levels[-1] = [keep]
    edges = [e for e in edges if e.dst not in dropped]
    return Abp(f, a.num_vars, tuple(tuple(l) for l in levels), tuple(edges), pi)


def derivative_abp_reference(a, i):
    """Derivative of an oblivious program in x_i by building the rewired
    program whole and pruning it: check and group, rewrite, prune."""
    grouped = _layers(a)
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
    grouped[layer] = [
        Edge(e.src, e.dst, one) for e in grouped[layer] if isinstance(e.label, VarLabel)
    ]
    new_edges = [e for edges in grouped for e in edges]
    return prune(Abp(a.field, a.num_vars, a.levels, tuple(new_edges), a.order))


def prune_edges_reference(a):
    """The edges prune keeps, in a.edges order: those on a source-to-sink
    path, found by repeated scans of the edge list to a fixed point."""
    fwd, bwd = {a.source}, {a.sink}
    grown = True
    while grown:
        grown = False
        for e in a.edges:
            if e.src in fwd and e.dst not in fwd:
                fwd.add(e.dst)
                grown = True
            if e.dst in bwd and e.src not in bwd:
                bwd.add(e.src)
                grown = True
    live = fwd & bwd
    if any(live.isdisjoint(lvl) for lvl in a.levels):
        return ()  # prune returns the zero program
    return tuple(e for e in a.edges if e.src in live and e.dst in live)


def dense_rank(field, rows) -> int:
    """Rank by textbook dense Gauss-Jordan elimination, column by column."""
    if not rows:
        return 0
    work = [list(r) for r in rows]
    zero = field.zero()
    rank = 0
    for col in range(len(work[0])):
        pivot = next((r for r in range(rank, len(work)) if work[r][col] != zero), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        inv = field.inv(work[rank][col])
        work[rank] = [field.mul(c, inv) for c in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col] != zero:
                factor = work[r][col]
                work[r] = [
                    field.sub(c, field.mul(factor, pc))
                    for c, pc in zip(work[r], work[rank])
                ]
        rank += 1
        if rank == len(work):
            break
    return rank


def dense_deriv_matrix(p, split):
    """Coefficient matrix of a multilinear polynomial under a split, dense:
    all 2^n rows of 2^n cells, row e column f holding the coefficient of the
    monomial with y-side support e and z-side support f."""
    y_pos = {v: i for i, v in enumerate(split.y_vars)}
    z_pos = {v: i for i, v in enumerate(split.z_vars)}
    field = p.field
    size = 1 << split.n
    rows = [[field.zero()] * size for _ in range(size)]
    for mono, coeff in p.terms.items():
        e = f = 0
        for v, exp in mono:
            assert exp == 1 and (v in y_pos or v in z_pos), (mono, split)
            if v in y_pos:
                e |= 1 << y_pos[v]
            else:
                f |= 1 << z_pos[v]
        rows[e][f] = field.add(rows[e][f], coeff)
    return rows


def mono_mul_reference(m1, m2):
    """Product of two monomials: collect exponents in a dict, then sort."""
    if not m1:
        return m2
    if not m2:
        return m1
    merged: dict = {}
    for v, e in m1:
        merged[v] = e
    for v, e in m2:
        merged[v] = merged.get(v, 0) + e
    return tuple(sorted(merged.items(), key=lambda it: var_sort_key(it[0])))


def mul_reference(p, q, budget=None):
    """p * q by schoolbook products in the field's own arithmetic (Fractions
    over Q), the sum of each monomial collected in a dict, zeros dropped at
    the end; BudgetError, as SparsePoly.mul words it, before any product."""
    if budget is not None and p.num_terms * q.num_terms > budget:
        raise BudgetError(
            f"product of {p.num_terms} x {q.num_terms} terms exceeds term budget {budget}"
        )
    f = p.field
    acc: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            m = mono_mul_reference(m1, m2)
            acc[m] = f.add(acc[m], f.mul(c1, c2)) if m in acc else f.mul(c1, c2)
    return SparsePoly(f, acc)


def expand_reference(a):
    """The polynomial of a program as the sum over its source-to-sink paths,
    enumerated one by one: each path's monomial collects its variables'
    exponents, and its coefficient is the product of its constants."""
    f = a.field
    out_edges: dict = {}
    for e in a.edges:
        out_edges.setdefault(e.src, []).append(e)
    acc: dict = {}

    def walk(node, exps, coeff):
        if node == a.sink:
            mono = tuple(sorted(exps.items()))
            acc[mono] = f.add(acc[mono], coeff) if mono in acc else coeff
            return
        for e in out_edges.get(node, ()):
            if isinstance(e.label, VarLabel):
                i = e.label.index
                walk(e.dst, {**exps, i: exps.get(i, 0) + 1}, coeff)
            else:
                walk(e.dst, exps, f.mul(coeff, e.label.value))

    walk(a.source, {}, f.one())
    return SparsePoly(f, acc)


def compose_reference(p, images, budget=DEFAULT_TERM_BUDGET):
    """p with every variable replaced by its image, on mul_reference: the
    partial product of each monomial prefix is cached, terms are taken in
    mono_sort_key order, and the running sum is checked against budget after
    each term, as SparsePoly.compose does on packed keys."""
    f = p.field
    one = SparsePoly.const(f, f.one())
    for v in p.variables():
        if v not in images:
            raise StructureError(f"no image for variable {v!r}")
    power_cache: dict = {}
    prefix_cache: dict = {(): one}

    def img_power(v, e):
        key = (v, e)
        got = power_cache.get(key)
        if got is None:
            got = one
            for _ in range(e):
                got = mul_reference(got, images[v], budget)
            power_cache[key] = got
        return got

    def prefix_product(mono):
        got = prefix_cache.get(mono)
        if got is None:
            head = prefix_product(mono[:-1])
            v, e = mono[-1]
            got = mul_reference(head, img_power(v, e), budget)
            prefix_cache[mono] = got
        return got

    total = SparsePoly.zero(f)
    for mono, coeff in sorted(p.terms.items(), key=lambda it: mono_sort_key(it[0])):
        total = total.add(prefix_product(mono).scale(coeff))
        if budget is not None and total.num_terms > budget:
            raise BudgetError(f"composition exceeds term budget {budget}")
    return total


def eval_generator_reference(params, assignment):
    """Value of the level-k map at a seed assignment, recomputing both half
    images at every node of the recursion: eval_generator without reuse."""
    return _eval_reference(
        params.k, params.r, params.field, params._basis_tables, tuple(assignment)
    )


def _eval_reference(k, r, field, tables, assignment):
    if k == 0:
        return (assignment[0],)
    lc_prev = z_count(k - 1, r)
    lc = z_count(k, r)
    zs = assignment[:lc]
    us = assignment[lc : lc + k]
    vs = assignment[lc + k :]
    inner_assignment = zs[:lc_prev] + us[: k - 1] + vs[: k - 1]
    shift_table, select_table = tables[k - 1]
    shifted_inner = list(inner_assignment)
    for i in range(lc_prev, lc_prev + r):
        y = zs[i]
        for j, h in enumerate(_basis_values(field, shift_table, zs[i + r])):
            shifted_inner[j] = field.add(shifted_inner[j], field.mul(y, h))
    first = _eval_reference(k - 1, r, field, tables, inner_assignment)
    second = _eval_reference(k - 1, r, field, tables, tuple(shifted_inner))
    u_k = us[-1]
    tags = _basis_values(field, select_table, vs[-1])
    return tuple(
        field.add(field.mul(u_k, tag), half) for tag, half in zip(tags, first + second)
    )


def pair_sum(dec) -> SparsePoly:
    """The polynomial a decomposition represents: sum of left_i * right_i."""
    total = SparsePoly.zero(dec.left[0].field)
    for l, r in zip(dec.left, dec.right):
        total = total.add(mul_reference(l, r))
    return total


def coefficient_rank(polys) -> int:
    """Rank of the coefficient matrix of a list of polynomials, by dense_rank."""
    field = polys[0].field
    monos = sorted({m for p in polys for m in p.terms}, key=str)
    rows = [[p.terms.get(m, field.zero()) for m in monos] for p in polys]
    return dense_rank(field, rows)
