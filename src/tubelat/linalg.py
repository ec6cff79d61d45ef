"""Exact linear algebra over the rationals.

Contract: a matrix argument is any sequence of row sequences of
``Fraction`` (lists, tuples, or a mix) and a vector any sequence of
``Fraction``.  No function mutates its arguments, and every matrix or vector
returned is a fresh list, so callers pass stored tuple matrices as they are
and never copy on the way in or out.  A matrix with zero rows carries no
column information, so every function that must cope with empty input takes
the column count explicitly.  Pivoting is deterministic (topmost usable row,
preferring unit pivots), which keeps all derived bases byte-stable across
runs.
"""

from __future__ import annotations

from fractions import Fraction

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


def _pivot_row(rows: Mat, col: int, start: int) -> int | None:
    """Topmost row with a nonzero entry in ``col``; unit entries win ties upward."""
    best = None
    for i in range(start, len(rows)):
        x = rows[i][col]
        if x == 0:
            continue
        if x == 1 or x == -1:
            return i
        if best is None:
            best = i
    return best


def rref(a: Mat, cols: int | None = None) -> tuple[Mat, list[int]]:
    """Reduced row echelon form (copy) and the list of pivot columns."""
    rows = [list(r) for r in a]
    ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        p = _pivot_row(rows, c, r)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = ONE / rows[r][c]
        if inv != 1:
            rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


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
