"""Independent references the tests compare the package against."""

from oabp.poly import SparsePoly, var_sort_key


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


def pair_sum(dec) -> SparsePoly:
    """The polynomial a decomposition represents: sum of left_i * right_i."""
    total = SparsePoly.zero(dec.left[0].field)
    for l, r in zip(dec.left, dec.right):
        total = total.add(l.mul(r))
    return total


def coefficient_rank(polys) -> int:
    """Rank of the coefficient matrix of a list of polynomials, by dense_rank."""
    field = polys[0].field
    monos = sorted({m for p in polys for m in p.terms}, key=str)
    rows = [[p.terms.get(m, field.zero()) for m in monos] for p in polys]
    return dense_rank(field, rows)
