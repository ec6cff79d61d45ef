"""Direct checks of the exact linear algebra layer and its input contract:
any sequence of row sequences is read, nothing is mutated, and results are
fresh lists.  The sparse ``rref`` is compared with a plain dense elimination
kept here as the reference."""

import copy
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat import linalg

ENTRY = st.integers(-3, 3).map(Fraction)
ONE = Fraction(1)
ZERO = Fraction(0)


# The reference: the dense Gauss-Jordan elimination that ``linalg.rref`` was
# before it went sparse, unchanged but for the name of its pivot helper.
def dense_pivot(rows, col: int, start: int):
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


def dense_rref(a, cols=None):
    """Reduced row echelon form (copy) and the list of pivot columns."""
    rows = [list(r) for r in a]
    ncols = cols if cols is not None else (len(rows[0]) if rows else 0)
    pivots = []
    r = 0
    for c in range(ncols):
        p = dense_pivot(rows, c, r)
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


@st.composite
def matrices(draw):
    n_rows = draw(st.integers(0, 4))
    n_cols = draw(st.integers(1, 4))
    mat = [[draw(ENTRY) for _ in range(n_cols)] for _ in range(n_rows)]
    return mat, n_cols


def frozen(mat):
    return tuple(tuple(row) for row in mat)


def is_fresh_list(out, *inputs):
    """A list of lists that shares no row object with any input."""
    if not isinstance(out, list) or not all(isinstance(row, list) for row in out):
        return False
    seen = {id(row) for mat in inputs for row in mat}
    return all(id(row) not in seen for row in out)


def dense(maps, width):
    """``{column: value}`` rows written out densely."""
    out = []
    for row in maps:
        vec = [ZERO] * width
        for j, x in row.items():
            vec[j] = x
        out.append(vec)
    return out


def map_vectors(out, width, *inputs):
    """Vectors returned as maps: a list of dicts of nonzero values inside the
    width, none of them a row of the inputs, written out densely for the
    dense references."""
    assert type(out) is list and all(type(v) is dict and all(v.values()) for v in out)
    assert all(0 <= j < width for v in out for j in v)
    seen = {id(row) for mat in inputs for row in mat}
    assert all(id(v) not in seen for v in out)
    return dense(out, width)


# Subspace helpers used by the tests, built on linalg; nothing in ``src/``
# calls them, so they live here.
def subspace_sum(u, v, dim: int) -> list:
    return linalg.column_space_basis([*u, *v], dim)


def subspace_intersection(u, v, dim: int) -> list:
    """Basis of span(u) n span(v) via the kernel of [U^T | -V^T]."""
    if not u or not v:
        return []
    cols = len(u) + len(v)
    system = []
    for coord in range(dim):
        system.append([w[coord] for w in u] + [-w[coord] for w in v])
    vectors = [
        [sum((cj * u[j][k] for j, cj in c.items() if j < len(u)), ZERO) for k in range(dim)]
        for c in linalg.nullspace(system, cols)
    ]
    return linalg.column_space_basis(vectors, dim)


def same_subspace(u, v, dim: int) -> bool:
    return linalg.subspace_leq(u, v, dim) and linalg.subspace_leq(v, u, dim)


def both_forms(fn, *mats, extra=()):
    """Call fn on list-of-lists and on tuple-of-tuples copies of the same
    matrices; the two results must agree and no input may change."""
    before = copy.deepcopy(mats)
    out_list = fn(*mats, *extra)
    assert mats == before
    out_tuple = fn(*(frozen(m) for m in mats), *extra)
    assert out_list == out_tuple
    return out_list


@settings(max_examples=150, deadline=None)
@given(matrices(), matrices())
def test_list_and_tuple_inputs_agree_and_stay_unchanged(am, bm):
    (a, cols), (b, b_cols) = am, bm
    reduced, _ = both_forms(linalg.rref, a, extra=(cols,))
    assert is_fresh_list(reduced, a)
    both_forms(linalg.rank, a, extra=(cols,))
    kernel = both_forms(linalg.nullspace, a, extra=(cols,))
    map_vectors(kernel, cols)
    t = both_forms(linalg.transpose, a, extra=(cols,))
    assert is_fresh_list(t, a)
    basis = both_forms(linalg.column_space_basis, a, extra=(cols,))
    map_vectors(basis, cols)
    if a:
        both_forms(linalg.solve, a, extra=([row[0] for row in a], cols))
        both_forms(linalg.in_span, a, extra=(a[0], cols))
    if b_cols == cols:
        for fn in (
            linalg.subspace_leq,
            subspace_sum,
            subspace_intersection,
            same_subspace,
        ):
            both_forms(fn, a, b, extra=(cols,))
    if len(b) == cols:
        prod = both_forms(linalg.mat_mul, a, b, extra=(b_cols,))
        assert is_fresh_list(prod, a, b)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_is_idempotent_and_keeps_the_row_space(am):
    a, cols = am
    reduced, pivots = linalg.rref(a, cols)
    assert linalg.rref(reduced, cols) == (reduced, pivots)
    assert len(reduced) == len(a)
    for i, p in enumerate(pivots):
        assert [row[p] for row in reduced] == [Fraction(k == i) for k in range(len(a))]
    assert all(x == 0 for row in reduced[len(pivots) :] for x in row)
    # every row of a is the combination of the reduced rows read off at the pivots
    for row in a:
        combo = [Fraction(0)] * cols
        for i, p in enumerate(pivots):
            combo = [x + row[p] * y for x, y in zip(combo, reduced[i])]
        assert combo == row
    # and every reduced row is a combination of the rows of a
    a_t = linalg.transpose(a, cols)
    for row in reduced[: len(pivots)]:
        assert linalg.solve(a_t, row, len(a)) is not None


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_nullspace_is_annihilated_with_cols_minus_rank_vectors(am):
    a, cols = am
    kernel = linalg.nullspace(a, cols)
    assert len(kernel) == cols - linalg.rank(a, cols)
    for v in map_vectors(kernel, cols):
        assert all(x == 0 for x in linalg.mat_vec(a, v))
    assert linalg.rank(kernel, cols) == len(kernel)


@settings(max_examples=200, deadline=None)
@given(matrices(), st.data())
def test_solve_satisfies_its_equation(am, data):
    a, cols = am
    x0 = data.draw(st.lists(ENTRY, min_size=cols, max_size=cols))
    b = linalg.mat_vec(a, x0)
    x = linalg.solve(a, b, cols)
    assert x is not None and linalg.mat_vec(a, x) == b
    rhs = data.draw(st.lists(ENTRY, min_size=len(a), max_size=len(a)))
    y = linalg.solve(a, rhs, cols)
    if y is None:
        augmented = [[*row, bi] for row, bi in zip(a, rhs)]
        assert linalg.rank(augmented, cols + 1) > linalg.rank(a, cols)
    else:
        assert linalg.mat_vec(a, y) == rhs


def test_mat_mul_keeps_b_cols_when_b_has_no_rows():
    a = [[], []]  # 2 x 0
    assert linalg.mat_mul(a, [], b_cols=3) == [[Fraction(0)] * 3] * 2
    assert linalg.mat_mul((), (), b_cols=3) == []
    assert linalg.mat_mul(((),), ()) == [[]]


@settings(max_examples=100, deadline=None)
@given(matrices())
def test_transpose_round_trip(am):
    a, cols = am
    t = linalg.transpose(a, cols)
    assert len(t) == cols
    assert linalg.transpose(t, len(a)) == a


# Denominators up to 4; +-1 among them, so unit and non-unit pivots both occur.
NONZERO = st.builds(Fraction, st.integers(-6, 6).filter(bool), st.integers(1, 4))
SHAPES = {
    "square": (st.integers(0, 8), st.integers(1, 8)),
    "wide": (st.integers(0, 3), st.integers(5, 14)),
    "tall": (st.integers(5, 14), st.integers(1, 3)),
}


@st.composite
def sparse_matrices(draw):
    """A matrix of one of the shapes, with a density from 1 in 10 (mostly
    zeros, often whole zero rows) to full, sometimes with a row repeated as a
    multiple of another."""
    n_rows, n_cols = (draw(s) for s in SHAPES[draw(st.sampled_from(sorted(SHAPES)))])
    density = draw(st.integers(1, 10))
    mat = [
        [draw(NONZERO) if draw(st.integers(1, 10)) <= density else ZERO for _ in range(n_cols)]
        for _ in range(n_rows)
    ]
    if n_rows >= 2 and draw(st.booleans()):
        i, j = draw(st.integers(0, n_rows - 1)), draw(st.integers(0, n_rows - 1))
        f = draw(NONZERO)
        mat[j] = [f * x for x in mat[i]]
    return mat, n_cols


@settings(max_examples=400, deadline=None)
@given(sparse_matrices(), st.data())
def test_rref_matches_the_dense_reference(am, data):
    a, width = am
    before = copy.deepcopy(a)
    # cols below the width carries the later columns along unpivoted
    for cols in (None, width, data.draw(st.integers(0, width))):
        assert linalg.rref(a, cols) == dense_rref(a, cols)
        assert linalg.rref(frozen(a), cols) == dense_rref(a, cols)
    assert a == before


def test_rref_of_no_rows_keeps_explicit_cols():
    for cols in (0, 1, 5):
        assert linalg.rref([], cols) == dense_rref([], cols) == ([], [])
        kernel = linalg.nullspace([], cols)
        assert map_vectors(kernel, cols) == [[Fraction(i == j) for j in range(cols)] for i in range(cols)]
    assert linalg.rref([[], []]) == dense_rref([[], []]) == ([[], []], [])


def dense_derived(a, rhs, cols):
    """rank, nullspace, column space basis and one solution of ``a x = rhs``,
    read off ``dense_rref``."""
    reduced, pivots = dense_rref(a, cols)
    kernel = []
    for f in (c for c in range(cols) if c not in pivots):
        v = [ZERO] * cols
        v[f] = ONE
        for row, p in zip(reduced, pivots):
            v[p] = -row[f]
        kernel.append(v)
    aug, aug_pivots = dense_rref([[*row, b] for row, b in zip(a, rhs)], cols + 1)
    basis = reduced[: len(pivots)]
    if cols in aug_pivots:
        return len(pivots), kernel, basis, None
    x = [ZERO] * cols
    for row, p in zip(aug, aug_pivots):
        x[p] = row[cols]
    return len(pivots), kernel, basis, x


@settings(max_examples=300, deadline=None)
@given(sparse_matrices(), st.data())
def test_derived_functions_match_the_reference(am, data):
    a, cols = am
    rhs = data.draw(st.lists(NONZERO | st.just(ZERO), min_size=len(a), max_size=len(a)))
    got = (
        linalg.rank(a, cols),
        map_vectors(linalg.nullspace(a, cols), cols),
        map_vectors(linalg.column_space_basis(a, cols), cols),
        linalg.solve(a, rhs, cols),
    )
    assert got == dense_derived(a, rhs, cols)


# The map-row entry: ``rref_maps`` against the same dense reference.

@st.composite
def map_matrices(draw):
    """A sparse matrix, sometimes with a row repeated as it is, and its rows as
    ``{column: value}`` maps, some holding an explicit zero."""
    a, width = draw(sparse_matrices())
    if a and draw(st.booleans()):
        a.append(list(a[draw(st.integers(0, len(a) - 1))]))
    rows = []
    for row in a:
        entries = {j: x for j, x in enumerate(row) if x}
        if draw(st.booleans()):
            entries.setdefault(draw(st.integers(0, width - 1)), ZERO)
        rows.append(entries)
    return a, rows, width


@settings(max_examples=400, deadline=None)
@given(map_matrices(), st.data())
def test_rref_maps_matches_the_dense_reference(amw, data):
    a, rows, width = amw
    before = copy.deepcopy(rows)
    # the width is explicit; cols below it carries the later columns along
    for cols in (None, width, data.draw(st.integers(0, width))):
        reduced, pivots = linalg.rref_maps(rows, width, cols)
        assert all(type(row) is dict and all(row.values()) for row in reduced)
        assert not any(row is given for row in reduced for given in rows)
        assert (dense(reduced, width), pivots) == dense_rref(a, cols)
    assert rows == before


def test_rref_maps_of_empty_maps():
    assert linalg.rref_maps([], 4) == ([], [])
    assert linalg.rref_maps([{}, {}], 3) == ([{}, {}], [])
    # an explicit zero is dropped; column 2 is carried, not pivoted
    assert linalg.rref_maps([{1: ZERO}, {}, {2: Fraction(-2)}], 3, 2) == ([{}, {}, {2: Fraction(-2)}], [])
    reduced, pivots = linalg.rref_maps([{}, {2: Fraction(-2), 0: Fraction(4)}, {}], 3)
    assert (reduced, pivots) == ([{0: ONE, 2: Fraction(-1, 2)}, {}, {}], [0])


@settings(max_examples=300, deadline=None)
@given(map_matrices(), st.data())
def test_derived_functions_on_map_rows_match_the_reference(amw, data):
    a, rows, cols = amw
    rhs = data.draw(st.lists(NONZERO | st.just(ZERO), min_size=len(a), max_size=len(a)))
    got = (
        linalg.rank(rows, cols),
        map_vectors(linalg.nullspace(rows, cols), cols, rows),
        map_vectors(linalg.column_space_basis(rows, cols), cols, rows),
        linalg.solve(rows, rhs, cols),
    )
    assert got == dense_derived(a, rhs, cols)
