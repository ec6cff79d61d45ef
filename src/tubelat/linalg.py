"""Exact linear algebra over the rationals.

Contract: a matrix argument is any sequence of row sequences of
``Fraction`` (lists, tuples, or a mix) and a vector any sequence of
``Fraction``.  No function mutates its arguments, and every matrix or vector
returned is a fresh list, so callers pass stored tuple matrices as they are
and never copy on the way in or out.  A matrix with zero rows carries no
column information, so every function that must cope with empty input takes
the column count explicitly.

Every reduction goes through ``rref``, one sparse exact elimination: a row is
stored as its nonzero integer numerators by column over one common
denominator, and a pivot step touches only the rows that hold the pivot
column, so a system costs its nonzeros rather than its size.  A reduced row
echelon form is unique for its row space and column order, so the reduced
rows, the pivot list and every basis derived from them (``nullspace``,
``column_space_basis``, ``solve``, ``inverse``) depend on the input alone,
not on how the elimination is carried out; all derived bases are byte-stable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Vec = list  # list[Fraction]; any sequence is accepted as input
Mat = list  # list[list[Fraction]]; any sequence of row sequences as input

ZERO = Fraction(0)
ONE = Fraction(1)


def identity(n: int) -> Mat:
    return [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat, b_cols: int | None = None) -> Mat:
    """Product a.b; ``b_cols`` keeps the width when b has zero rows."""
    if not a:
        return []
    inner = len(a[0])
    cols = len(b[0]) if b else (0 if b_cols is None else b_cols)
    out = []
    for row in a:
        out.append(
            [sum((row[k] * b[k][j] for k in range(inner)), ZERO) for j in range(cols)]
        )
    return out


def transpose(a: Mat, cols: int) -> Mat:
    """The ``cols`` x len(a) transpose; ``cols`` is a's width, needed when a has no rows."""
    return [[row[j] for row in a] for j in range(cols)]


def mat_vec(a: Mat, v: Vec) -> Vec:
    return [sum((row[k] * v[k] for k in range(len(v))), ZERO) for row in a]


def rref(a: Mat, cols: int | None = None) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns.

    Only the first ``cols`` columns (default: all) are pivoted; later columns
    are carried along.  All ``len(a)`` rows come back, as wide as the input
    rows, pivot rows first.  The pivot is the topmost remaining row holding
    the column, a +-1 entry preferred, and swapping it into place orders the
    rest as textbook Gauss-Jordan elimination would: uniqueness does not fix
    the carried columns of the non-pivot rows, this order does.
    """
    width = len(a[0]) if a else 0
    # row k is nums[k] / dens[k]: nonzero integer numerators by column over a
    # positive common denominator
    nums, dens = [], []
    for row in a:
        nonzero = {j: x for j, x in enumerate(row) if x}
        d = lcm(*[x.denominator for x in nonzero.values()])
        nums.append({j: x.numerator * (d // x.denominator) for j, x in nonzero.items()})
        dens.append(d)
    # order[:len(pivots)] are the pivot rows, order[len(pivots):] the others
    order = list(range(len(nums)))
    pivots: list[int] = []
    for c in range(width if cols is None else cols):
        r = len(pivots)
        if r == len(order):
            break
        p = None
        for i in range(r, len(order)):
            x = nums[order[i]].get(c)
            if x is not None:
                if abs(x) == dens[order[i]]:
                    p = i
                    break
                if p is None:
                    p = i
        if p is None:
            continue
        order[r], order[p] = order[p], order[r]
        k = order[r]
        pivot = nums[k]
        # scale to a leading 1: the row becomes pivot / pivot[c], pivot[c] > 0
        g = gcd(*pivot.values())
        if pivot[c] < 0:
            g = -g
        if g != 1:
            for j in pivot:
                pivot[j] //= g
        pc = dens[k] = pivot[c]
        for i, row in enumerate(nums):
            f = row.get(c)
            if f is None or i == k:
                continue
            # row / d - (f / d) (pivot / pc) = (pc row - f pivot) / (pc d)
            if pc != 1:
                for j in row:
                    row[j] *= pc
            for j, y in pivot.items():
                x = row.get(j, 0) - f * y
                if x:
                    row[j] = x
                else:
                    del row[j]
            d = dens[i] * pc
            g = gcd(d, *row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
            dens[i] = d // g
        pivots.append(c)
    out = []
    for k in order:
        dense = [ZERO] * width
        for j, x in nums[k].items():
            dense[j] = Fraction(x, dens[k])
        out.append(dense)
    return out, pivots


def rank(a: Mat, cols: int | None = None) -> int:
    return len(rref(a, cols)[1])


def nullspace(a: Mat, cols: int) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, deterministic."""
    reduced, pivots = rref(a, cols)
    pivot_set = set(pivots)
    free = [c for c in range(cols) if c not in pivot_set]
    basis = []
    for f in free:
        v = [ZERO] * cols
        v[f] = ONE
        for r, p in enumerate(pivots):
            v[p] = -reduced[r][f]
        basis.append(v)
    return basis


def solve(a: Mat, b: Vec, cols: int) -> Vec | None:
    """One solution of ``a x = b`` or ``None`` if the system is inconsistent."""
    aug = [[*row, bi] for row, bi in zip(a, b)]
    reduced, pivots = rref(aug, cols + 1)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for r, p in enumerate(pivots):
        x[p] = reduced[r][cols]
    return x


def inverse(a: Mat) -> Mat | None:
    n = len(a)
    aug = [[*row, *ident_row] for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def column_space_basis(vectors: list[Vec], dim: int) -> list[Vec]:
    """Deterministic basis of span(vectors): the ones at pivot positions of the
    coordinate matrix, echelonized.  Returns reduced, leading-one vectors."""
    if not vectors:
        return []
    reduced, pivots = rref(vectors, dim)
    # rows of the rref of the stacked vectors span the same space
    return reduced[: len(pivots)]


def in_span(vectors: list[Vec], v: Vec, dim: int) -> bool:
    return rank([*vectors, v], dim) == rank(vectors, dim)


def subspace_leq(u: list[Vec], v: list[Vec], dim: int) -> bool:
    """span(u) contained in span(v)."""
    return rank([*v, *u], dim) == rank(v, dim)


def subspace_sum(u: list[Vec], v: list[Vec], dim: int) -> list[Vec]:
    return column_space_basis([*u, *v], dim)


def subspace_intersection(u: list[Vec], v: list[Vec], dim: int) -> list[Vec]:
    """Basis of span(u) n span(v) via the kernel of [U^T | -V^T]."""
    if not u or not v:
        return []
    cols = len(u) + len(v)
    system = []
    for coord in range(dim):
        system.append([w[coord] for w in u] + [-w[coord] for w in v])
    vectors = [
        [sum((cj * w[k] for cj, w in zip(c, u) if cj), ZERO) for k in range(dim)]
        for c in nullspace(system, cols)
    ]
    return column_space_basis(vectors, dim)


def same_subspace(u: list[Vec], v: list[Vec], dim: int) -> bool:
    return subspace_leq(u, v, dim) and subspace_leq(v, u, dim)
