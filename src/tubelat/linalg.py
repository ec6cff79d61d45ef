"""Exact linear algebra over the rationals.

Contract: a matrix argument is any sequence of row sequences of
``Fraction`` (lists, tuples, or a mix) and a vector any sequence of
``Fraction``.  ``rank``, ``nullspace``, ``solve`` and ``column_space_basis``
also take rows that are ``{column: value}`` maps, the sparse form in which
the module layer builds its systems, alone or mixed with dense rows; a
column missing from a map holds zero.
Either row form reaches the elimination through one adaptor, ``_map_rows``.
No function mutates its arguments, and every matrix or vector returned is a
fresh list, so callers pass stored tuple matrices as they are and never copy
on the way in or out.  A matrix with zero rows, or of map rows, carries no
column information, so every function that must cope with such input takes
the column count explicitly.

Every reduction goes through ``rref_maps``, one sparse exact elimination of
map rows of an explicit width: a row is stored as its nonzero integer
numerators by column over one common denominator, an index from each column
to the rows holding it finds the pivot candidates, and a pivot step touches
only the rows that hold the pivot column, so a system costs its nonzeros
rather than its size.  ``nullspace`` and ``solve`` read its pivot rows as
maps, ``rank`` only counts the pivots of its elimination (skipping the
conversion of the reduced rows to ``Fraction``s), and ``rref`` is its dense
front end, which writes the reduced rows back out densely; its callers are
``inverse`` (for ``algebra.euler_data``) and the benchmark's timing probe.
A reduced row echelon form is unique for its row space and column order, so
the reduced rows, the pivot list and every basis derived from them
(``nullspace``, ``column_space_basis``, ``solve``, ``inverse``) depend on
the input alone, not on how the elimination is carried out; all derived
bases are byte-stable.
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


def rref_maps(rows, width: int, cols: int | None = None) -> tuple[list[dict], list[int]]:
    """Reduced row echelon form of ``{column: value}`` rows, and the pivots.

    ``width`` is the number of columns; only the first ``cols`` (default:
    all) are pivoted, and later columns are carried along.  A zero value in
    a map is allowed and dropped.  All ``len(rows)`` rows come back as fresh
    maps of their nonzero entries, pivot rows first.  The pivot is the
    topmost remaining row holding the column, a +-1 entry preferred, and
    swapping it into place orders the rest as textbook Gauss-Jordan
    elimination would: uniqueness does not fix the carried columns of the
    non-pivot rows, this order does.
    """
    nums, dens, order, pivots = _eliminate(rows, width, cols)
    return [{j: Fraction(x, dens[k]) for j, x in nums[k].items()} for k in order], pivots


def _eliminate(rows, width: int, cols: int | None = None):
    """The elimination of ``rref_maps`` without its output conversion: the
    reduced rows as integer numerators ``nums`` over denominators ``dens``,
    row ``order[i]`` in place i, and the pivots."""
    # row k is nums[k] / dens[k]: nonzero integer numerators by column over a
    # positive common denominator; holders[j] is the set of rows holding column j
    nums, dens = [], []
    holders: dict[int, set[int]] = {}
    for k, row in enumerate(rows):
        d = lcm(*[x.denominator for x in row.values()])
        nums.append({j: n for j, x in row.items() if (n := x.numerator * (d // x.denominator))})
        dens.append(d)
        for j in nums[k]:
            holders.setdefault(j, set()).add(k)
    # order[:len(pivots)] are the pivot rows, order[len(pivots):] the others,
    # and row k stands at order[place[k]]
    order = list(range(len(nums)))
    place = list(order)
    pivots: list[int] = []
    for c in range(width if cols is None else cols):
        r = len(pivots)
        if r == len(order):
            break
        held = [k for k in holders.get(c, ()) if place[k] >= r]
        if not held:
            continue
        units = [k for k in held if abs(nums[k][c]) == dens[k]]
        k = min(units or held, key=place.__getitem__)
        p = place[k]
        order[r], order[p] = k, order[r]
        place[order[p]], place[k] = p, r
        pivot = nums[k]
        # scale to a leading 1: the row becomes pivot / pivot[c], pivot[c] > 0
        g = gcd(*pivot.values())
        if pivot[c] < 0:
            g = -g
        if g != 1:
            for j in pivot:
                pivot[j] //= g
        pc = dens[k] = pivot[c]
        for i in list(holders[c]):
            if i == k:
                continue
            row = nums[i]
            f = row[c]
            # row / d - (f / d) (pivot / pc) = (pc row - f pivot) / (pc d)
            if pc != 1:
                for j in row:
                    row[j] *= pc
            for j, y in pivot.items():
                x = row.get(j)
                if x is None:
                    row[j] = -f * y
                    holders[j].add(i)
                elif x := x - f * y:
                    row[j] = x
                else:
                    del row[j]
                    holders[j].discard(i)
            d = dens[i] * pc
            g = gcd(d, *row.values())
            if g != 1:
                for j in row:
                    row[j] //= g
            dens[i] = d // g
        pivots.append(c)
    return nums, dens, order, pivots


def rref(a: Mat, cols: int | None = None) -> tuple[Mat, list[int]]:
    """Dense front end of ``rref_maps``: the reduced rows (as wide as the
    input rows) and the pivot columns, for dense rows."""
    width = len(a[0]) if a else 0
    reduced, pivots = rref_maps(_map_rows(a), width, cols)
    return [_dense(row, width) for row in reduced], pivots


def _dense(row: dict, width: int) -> Vec:
    out = [ZERO] * width
    for j, x in row.items():
        out[j] = x
    return out


def _map_rows(a) -> list[dict]:
    """The rows of ``a`` as ``{column: value}`` maps: map rows as they are,
    dense rows by their nonzero entries."""
    return [row if isinstance(row, dict) else {j: x for j, x in enumerate(row) if x} for row in a]


def _pivot_rows(a, cols: int | None) -> tuple[list[dict], list[int]]:
    """The pivot rows of the reduced form of ``a`` as maps, and the pivots;
    ``cols`` defaults to the width of dense rows."""
    if cols is None:
        cols = len(a[0]) if a else 0
    reduced, pivots = rref_maps(_map_rows(a), cols)
    return reduced[: len(pivots)], pivots


def rank(a, cols: int | None = None) -> int:
    """The number of pivots; no reduced row is converted to ``Fraction``s."""
    if cols is None:
        cols = len(a[0]) if a else 0
    return len(_eliminate(_map_rows(a), cols)[3])


def nullspace(a, cols: int) -> list[Vec]:
    """Basis of the right kernel, one vector per free column, deterministic."""
    reduced, pivots = _pivot_rows(a, cols)
    pivot_set = set(pivots)
    free = {f: [ZERO] * cols for f in range(cols) if f not in pivot_set}
    for f, v in free.items():
        v[f] = ONE
    for row, p in zip(reduced, pivots):
        for j, x in row.items():
            v = free.get(j)
            if v is not None:
                v[p] = -x
    return list(free.values())


def solve(a, b: Vec, cols: int) -> Vec | None:
    """One solution of ``a x = b`` or ``None`` if the system is inconsistent."""
    aug = [{**row, cols: bi} if bi else row for row, bi in zip(_map_rows(a), b)]
    reduced, pivots = _pivot_rows(aug, cols + 1)
    if cols in pivots:
        return None
    x = [ZERO] * cols
    for row, p in zip(reduced, pivots):
        x[p] = row.get(cols, ZERO)
    return x


def inverse(a: Mat) -> Mat | None:
    n = len(a)
    aug = [[*row, *ident_row] for row, ident_row in zip(a, identity(n))]
    reduced, pivots = rref(aug, 2 * n)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in reduced]


def column_space_basis(vectors, dim: int) -> list[Vec]:
    """Deterministic basis of span(vectors), for dense vectors of length
    ``dim`` or ``{coordinate: value}`` maps: the pivot rows of their reduced
    form, which span the same space, written out densely."""
    reduced, _ = _pivot_rows(vectors, dim)
    return [_dense(row, dim) for row in reduced]


def in_span(vectors: list[Vec], v: Vec, dim: int) -> bool:
    return rank([*vectors, v], dim) == rank(vectors, dim)


def subspace_leq(u: list[Vec], v: list[Vec], dim: int) -> bool:
    """span(u) contained in span(v)."""
    return rank([*v, *u], dim) == rank(v, dim)
