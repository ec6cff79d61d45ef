"""Explicit finite-dimensional modules as sparse matrix data.

A representation assigns a rational vector space to every vertex and a
matrix to every arrow, stored once by columns: per source coordinate, its
nonzero ``(row, value)`` pairs in ascending row order, so equal matrices
have equal columns.  ``make_representation`` takes dense input and
``matrix`` is the one dense view, for the wire format and ``is_morphism``;
all else, submodules and quotients too, reads the columns.  An element at
vertex u is pushed along an arrow u -> v by the arrow's matrix (covariant
convention, pinned empirically by the law hom(P_i, M) = dim(M)_i), and a
combination of paths by ``act``.  Hom spaces are kernels of the intertwiner
system, built as map rows that ``linalg`` adapts like dense ones; Ext comes
from a projective-cover presentation 0 -> K -> P0 -> M -> 0, with Hom(P0, N)
read off by Yoneda (Hom(P_v, N) = N_v).  All linear algebra is exact.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .algebra import AlgebraSpec, Path, PathBasis
from .errors import (
    ConsistencyError,
    SpecFormatError,
    TypeMismatchError,
    ValidationError,
)
from .lattice import K0Lattice, Slope
from .linalg import ONE, ZERO
from .serialize import frac_to_str, parse_frac, parse_int, read
from .value import Value

# Dense matrices and coordinates are frozen tuples; they go to ``linalg`` as
# they are, since it reads any row sequences and returns fresh lists.
Matrix = tuple[tuple[Fraction, ...], ...]
Column = tuple[tuple[int, Fraction], ...]  # nonzero (row, value), rows ascending
Element = tuple[int, tuple[Fraction, ...]]  # (vertex, coordinates)
SparseVec = dict[int, Fraction]  # {coordinate: nonzero value}


class Representation(Value):
    """A module: its ``dims`` per vertex and, per arrow label, the
    ``Column``s of the arrow's matrix.  Compared by identity, and shown
    without its matrices."""

    __slots__ = ("spec", "dims", "columns")
    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self) -> str:
        return f"Representation(spec={self.spec!r}, dims={self.dims!r})"

    @property
    def total_dim(self) -> int:
        return sum(self.dims)


def _column(vec) -> Column:
    return tuple((i, x) for i, x in enumerate(vec) if x)


def matrix(rep: Representation, label: str) -> Matrix:
    """The dense dims(tgt) x dims(src) matrix of an arrow."""
    arrow = rep.spec.arrow_map()[label]
    rows = [[ZERO] * rep.dims[arrow.src] for _ in range(rep.dims[arrow.tgt])]
    for j, column in enumerate(rep.columns[label]):
        for i, x in column:
            rows[i][j] = x
    return tuple(map(tuple, rows))


def make_representation(spec: AlgebraSpec, dims, maps) -> Representation:
    """Normalise and shape-check dense input; every arrow needs a
    dims(tgt) x dims(src) matrix (missing ones default to zero)."""
    dims = tuple(map(parse_int, dims))
    if len(dims) != spec.vertex_count or any(d < 0 for d in dims):
        raise SpecFormatError(f"bad dimension vector {dims}")
    columns: dict[str, tuple[Column, ...]] = {}
    for arrow in spec.arrows:
        rows, cols = dims[arrow.tgt], dims[arrow.src]
        mat = maps.get(arrow.label)
        if mat is None:
            columns[arrow.label] = ((),) * cols
            continue
        m = [[x if type(x) is Fraction else parse_frac(x) for x in row] for row in mat]
        if len(m) != rows or any(len(r) != cols for r in m):
            raise SpecFormatError(
                f"matrix for arrow {arrow.label!r} must be {rows}x{cols}"
            )
        columns[arrow.label] = tuple(map(_column, linalg.transpose(m, cols)))
    unknown = set(maps) - set(columns)
    if unknown:
        raise SpecFormatError(f"matrices for unknown arrows: {sorted(unknown)}")
    return Representation(spec, dims, columns)


def push(rep: Representation, path: Path, vec: SparseVec) -> SparseVec:
    """The image of a sparse vector along a path, one sparse matrix-vector
    step per arrow; ``push(rep, path, {j: ONE})`` is column j of the path's
    matrix, and a trivial path returns ``vec`` itself."""
    for label in path:
        columns = rep.columns[label]
        image: SparseVec = {}
        for j, x in vec.items():
            for i, y in columns[j]:
                image[i] = image.get(i, 0) + x * y
        vec = {i: x for i, x in image.items() if x}
    return vec


def act(rep: Representation, combo, vec: SparseVec) -> SparseVec:
    """The image of a sparse vector under a combination of ``(coefficient,
    path)`` terms, each term pushed along its path."""
    image: SparseVec = {}
    for coeff, path in combo:
        for i, x in push(rep, path, vec).items():
            image[i] = image.get(i, 0) + coeff * x
    return {i: x for i, x in image.items() if x}


def validate(rep: Representation) -> None:
    """Check that every relation acts as the zero matrix, column by column;
    failures name the violated relation."""
    failures = []
    for idx, rel in enumerate(rep.spec.relations):
        src, _ = rep.spec.path_endpoints(rel[0][1])
        for j in range(rep.dims[src]):
            if act(rep, rel, {j: ONE}):
                pretty = " + ".join(f"({frac_to_str(c)})*{'.'.join(p)}" for c, p in rel)
                failures.append(f"relation {idx + 1} [{pretty}] is violated")
                break
    if failures:
        raise ValidationError(failures)


def module_slope(lattice: K0Lattice, rep: Representation) -> Slope:
    return lattice.slope(rep.dims)


# ---------------------------------------------------------------------------
# Standard modules
# ---------------------------------------------------------------------------


def zero_rep(spec: AlgebraSpec) -> Representation:
    return Representation(spec, (0,) * spec.vertex_count, {a.label: () for a in spec.arrows})


def _vertex(v, count: int) -> int:
    """A vertex read as a JSON integer below ``count``, the vertex count."""
    if not 0 <= (v := parse_int(v)) < count:
        raise SpecFormatError(f"vertex {v} out of range")
    return v


def simple(spec: AlgebraSpec, i: int) -> Representation:
    i = _vertex(i, spec.vertex_count)
    dims = tuple(1 if v == i else 0 for v in range(spec.vertex_count))
    return Representation(spec, dims, {a.label: ((),) * dims[a.src] for a in spec.arrows})


def projective(basis: PathBasis, i: int) -> Representation:
    """P_i on the normal-form path basis, arrows acting by composition."""
    spec = basis.spec
    i = _vertex(i, spec.vertex_count)
    dims = tuple(len(basis.paths_between(i, v)) for v in range(spec.vertex_count))
    columns = {}
    for arrow in spec.arrows:
        index = {p: k for k, p in enumerate(basis.paths_between(i, arrow.tgt))}
        columns[arrow.label] = tuple(
            tuple(sorted((index[word], c) for word, c in basis.reduce(p + (arrow.label,)).items()))
            for p in basis.paths_between(i, arrow.src)
        )
    return Representation(spec, dims, columns)


def direct_sum(*modules: Representation) -> Representation:
    """The sum of one or more modules, its matrices block-diagonal: each
    summand's columns in turn, rows shifted past the summands before it."""
    spec = modules[0].spec
    if any(m.spec is not spec and m.spec != spec for m in modules):
        raise TypeMismatchError("direct sum of modules over different algebras")
    dims = tuple(map(sum, zip(*(m.dims for m in modules))))
    columns = {}
    for arrow in spec.arrows:
        cols, before = [], 0
        for m in modules:
            cols += [tuple((i + before, x) for i, x in c) for c in m.columns[arrow.label]]
            before += m.dims[arrow.tgt]
        columns[arrow.label] = tuple(cols)
    return Representation(spec, dims, columns)


def sum_embed(m: Representation, n: Representation, elem: Element, side: int) -> Element:
    """Coordinates of an element of m (side 0) or n (side 1) inside their sum."""
    v, coords = elem
    if side == 0:
        return (v, tuple(coords) + (ZERO,) * n.dims[v])
    return (v, (ZERO,) * m.dims[v] + tuple(coords))


# ---------------------------------------------------------------------------
# Hom spaces: the intertwiner linear system
# ---------------------------------------------------------------------------

Morphism = tuple[Matrix, ...]  # one dims_N[v] x dims_M[v] block per vertex


def _unknown_offsets(m: Representation, n: Representation) -> tuple[list[int], int]:
    offsets = []
    total = 0
    for v in range(m.spec.vertex_count):
        offsets.append(total)
        total += n.dims[v] * m.dims[v]
    return offsets, total


def _intertwiner_rows(m: Representation, n: Representation):
    """The system f_v . a = b . f_u of a morphism m -> n as ``{column: value}``
    rows, its unknowns the entries of the blocks f_v in row-major order."""
    if m.spec != n.spec:
        raise TypeMismatchError("modules live over different algebras")
    offsets, total = _unknown_offsets(m, n)
    rows = []
    for arrow in m.spec.arrows:
        u, v = arrow.src, arrow.tgt
        a_cols = m.columns[arrow.label]  # dims_M[v] x dims_M[u], by columns
        mu, mv = m.dims[u], m.dims[v]
        # row i of b (dims_N[v] x dims_N[u]) as (first unknown of f_u's row s, -b[i][s])
        b_rows: list[list[tuple[int, Fraction]]] = [[] for _ in range(n.dims[v])]
        for s, column in enumerate(n.columns[arrow.label]):
            for i, x in column:
                b_rows[i].append((offsets[u] + s * mu, -x))
        a_held = [j for j in range(mu) if a_cols[j]]
        # f_v . a = b . f_u, one equation per (i < dims_N[v], j < dims_M[u])
        # that has a term: where row i of b is zero, only the j that a holds
        for i, b_row in enumerate(b_rows):
            base = offsets[v] + i * mv
            for j in range(mu) if b_row else a_held:
                row = {base + t: x for t, x in a_cols[j]}
                for col, y in b_row:
                    # f_u and f_v share unknowns only on a loop (u = v), where
                    # the sum may be zero; the elimination drops zero values
                    x = row.get(col + j)
                    row[col + j] = y if x is None else x + y
                rows.append(row)
    return rows, offsets, total


def hom_dim(m: Representation, n: Representation) -> int:
    rows, _, total = _intertwiner_rows(m, n)
    return total - linalg.rank(rows, total)


def _vector_to_morphism(vec, offsets, m: Representation, n: Representation) -> Morphism:
    return tuple(
        tuple(tuple(vec[o + i * d : o + i * d + d]) for i in range(n.dims[v]))
        for v, (o, d) in enumerate(zip(offsets, m.dims))
    )


def hom_basis(m: Representation, n: Representation) -> list[Morphism]:
    rows, offsets, total = _intertwiner_rows(m, n)
    return [
        _vector_to_morphism([vec.get(k, ZERO) for k in range(total)], offsets, m, n)
        for vec in linalg.nullspace(rows, total)
    ]


def apply_morphism(f: Morphism, elem: Element) -> Element:
    v, coords = elem
    v = _vertex(v, len(f))
    return (v, tuple(linalg.mat_vec(f[v], coords)))


def compose_morphisms(f: Morphism, g: Morphism, source_dims) -> Morphism:
    """f after g, blockwise; ``source_dims`` is the dimension vector of g's source."""
    return tuple(
        tuple(map(tuple, linalg.mat_mul(fb, gb, b_cols=d)))
        for fb, gb, d in zip(f, g, source_dims)
    )


def is_morphism(m: Representation, n: Representation, f: Morphism) -> bool:
    for arrow in m.spec.arrows:
        u, v = arrow.src, arrow.tgt
        lhs = linalg.mat_mul(f[v], matrix(m, arrow.label), b_cols=m.dims[u])
        rhs = linalg.mat_mul(matrix(n, arrow.label), f[u], b_cols=m.dims[u])
        if lhs != rhs:
            return False
    return True


def morphism_taking(
    m: Representation,
    n: Representation,
    pairs: list[tuple[Element, Element]],
) -> Morphism | None:
    """A morphism m -> n sending each source element to its target, or None.

    Solves the intertwiner system extended by the affine point conditions.
    """
    rows, offsets, total = _intertwiner_rows(m, n)
    rhs = [ZERO] * len(rows)
    for (v, src), (w, tgt) in pairs:
        if (v := _vertex(v, m.spec.vertex_count)) != _vertex(w, m.spec.vertex_count):
            raise TypeMismatchError("point images must live at the same vertex")
        if len(src) != m.dims[v] or len(tgt) != n.dims[v]:
            raise TypeMismatchError("point coordinates have the wrong length")
        src_entries = [(j, x) for j, c in enumerate(src) if (x := parse_frac(c))]
        for i in range(n.dims[v]):
            base = offsets[v] + i * m.dims[v]
            rows.append({base + j: x for j, x in src_entries})
            rhs.append(parse_frac(tgt[i]))
    sol = linalg.solve(rows, rhs, total)
    if sol is None:
        return None
    return _vector_to_morphism(sol, offsets, m, n)


# ---------------------------------------------------------------------------
# Submodules, quotients, covers and Ext
# ---------------------------------------------------------------------------

Bases = list[list[SparseVec]]  # per vertex, basis vectors as maps of ambient coordinates


def submodule_closure(rep: Representation, gens: list[Element]) -> Bases:
    """Per-vertex reduced bases of the submodule generated by the elements,
    each element read once into a map: a vertex in range, rational coordinates."""
    spans: Bases = [[] for _ in range(rep.spec.vertex_count)]
    for v, coords in gens:
        v = _vertex(v, rep.spec.vertex_count)
        if len(coords) != rep.dims[v]:
            raise TypeMismatchError("generator has wrong length")
        spans[v].append({j: x for j, c in enumerate(coords) if (x := parse_frac(c))})
    for v in range(rep.spec.vertex_count):
        spans[v] = linalg.column_space_basis(spans[v], rep.dims[v])
    changed = True
    while changed:
        changed = False
        for arrow in rep.spec.arrows:
            u, v = arrow.src, arrow.tgt
            if not spans[u]:
                continue
            pushed = [push(rep, (arrow.label,), vec) for vec in spans[u]]
            merged = linalg.column_space_basis(spans[v] + pushed, rep.dims[v])
            if len(merged) != len(spans[v]):
                spans[v] = merged
                changed = True
    return spans


def sub_representation(rep: Representation, bases: Bases) -> Representation:
    """The subrepresentation spanned by arrow-closed per-vertex ``Bases``,
    each basis vector a map or a dense vector in ambient coordinates."""
    bases = list(map(linalg._map_rows, bases))
    dims = tuple(map(len, bases))
    columns = {}
    for arrow in rep.spec.arrows:
        u, v, d = arrow.src, arrow.tgt, dims[arrow.tgt]
        # one elimination of the map rows of the matrix whose columns are the
        # target basis, with each pushed image carried along as column d + j:
        # its coefficients are the carried entries of the pivot rows
        rows: list[SparseVec] = [{} for _ in range(rep.dims[v])]
        for c, vec in enumerate(bases[v] + [push(rep, (arrow.label,), w) for w in bases[u]]):
            for i, x in vec.items():
                rows[i][c] = x
        reduced, pivots = linalg.rref_maps(rows, d + len(bases[u]), d)
        if any(reduced[len(pivots) :]):  # a carried entry with no pivot
            raise ConsistencyError("bases are not closed under the arrows")
        cols = [[] for _ in bases[u]]
        for row, p in zip(reduced, pivots):
            for c, x in row.items():
                if c >= d:
                    cols[c - d].append((p, x))
        columns[arrow.label] = tuple(map(tuple, cols))
    return Representation(rep.spec, dims, columns)


def _projection(basis_vectors: list[SparseVec], dim: int):
    """Return (free_positions, project): the positions that lead no reduced
    row of the basis, and the map from a ``Column`` to its quotient
    ``Column`` over the standard complement."""
    reduced, pivots = linalg.rref_maps(basis_vectors, dim)
    rows = dict(zip(pivots, reduced))
    free = [j for j in range(dim) if j not in rows]
    index = {j: k for k, j in enumerate(free)}

    def project(column) -> Column:
        # subtract the row of each pivot held; a pivot row holds no other pivot
        image = dict(column)
        for p, f in column:
            for j, y in rows[p].items() if p in rows else ():
                image[j] = image.get(j, 0) - f * y
        return tuple(sorted((index[j], x) for j, x in image.items() if x))

    return free, project


def _on_dense(free: list[int], project):
    """A projection's map on dense vectors: a dense ambient vector to its
    dense quotient coordinates."""

    def reduce(vec):
        image = dict(project(_column(vec)))
        return [image.get(k, ZERO) for k in range(len(free))]

    return reduce


def quotient_representation(
    rep: Representation, bases: Bases
) -> tuple[Representation, list]:
    """The quotient by arrow-closed ``Bases``, of maps or dense vectors, plus
    the per-vertex projections (dense ambient -> dense quotient coordinates)."""
    frees, projects = zip(*map(_projection, map(linalg._map_rows, bases), rep.dims))
    columns = {
        a.label: tuple(projects[a.tgt](rep.columns[a.label][j]) for j in frees[a.src])
        for a in rep.spec.arrows
    }
    reducers = list(map(_on_dense, frees, projects))
    return Representation(rep.spec, tuple(map(len, frees)), columns), reducers


def quotient_by_elements(
    rep: Representation, gens: list[Element]
) -> tuple[Representation, list]:
    return quotient_representation(rep, submodule_closure(rep, gens))


def radical_bases(rep: Representation) -> Bases:
    """Per-vertex bases of rad(M) = sum of images of all arrow maps, the
    span of the arrows' columns; a zero column adds nothing to it."""
    spans: list[list[SparseVec]] = [[] for _ in range(rep.spec.vertex_count)]
    for arrow in rep.spec.arrows:
        spans[arrow.tgt] += [dict(column) for column in rep.columns[arrow.label] if column]
    return [
        linalg.column_space_basis(spans[v], rep.dims[v])
        for v in range(rep.spec.vertex_count)
    ]


def top_dims(rep: Representation) -> tuple[int, ...]:
    rad = radical_bases(rep)
    return tuple(rep.dims[v] - len(rad[v]) for v in range(rep.spec.vertex_count))


class Presentation(Value):
    """A projective cover P0 ->> M with its kernel subrepresentation; P0 has
    one summand P_v per generator (v, fpos), the unit vector e_fpos of M_v."""

    __slots__ = ("cover_source", "kernel", "generators")


def projective_cover_presentation(basis: PathBasis, rep: Representation) -> Presentation:
    spec = rep.spec
    # one generator per top basis vector: the positions that lead no reduced
    # row of the radical, a row's lead being its least key
    generators = []
    for v, rows in enumerate(radical_bases(rep)):
        leads = set(map(min, rows))
        generators += [(v, fpos) for fpos in range(rep.dims[v]) if fpos not in leads]
    projectives = {v: projective(basis, v) for v, _ in generators}
    p0 = direct_sum(zero_rep(spec), *(projectives[v] for v, _ in generators))

    # the cover map at each u as map rows: basis path p of the (v, fpos)
    # summand maps to the image of e_fpos along p
    rows: list[list[SparseVec]] = [[{} for _ in range(d)] for d in rep.dims]
    next_col = [0] * spec.vertex_count
    for v, fpos in generators:
        for u in range(spec.vertex_count):
            for path in basis.paths_between(v, u):
                for i, x in push(rep, path, {fpos: ONE}).items():
                    rows[u][i][next_col[u]] = x
                next_col[u] += 1
    kernel_bases: Bases = []
    for u, width in enumerate(p0.dims):
        kernel_basis = linalg.nullspace(rows[u], width)
        if width - len(kernel_basis) != rep.dims[u]:
            raise ConsistencyError("projective cover fails to be surjective")
        kernel_bases.append(kernel_basis)
    return Presentation(p0, sub_representation(p0, kernel_bases), tuple(generators))


def ext_dim(basis: PathBasis, m: Representation, n: Representation) -> int:
    """dim Ext^1(M, N) as the cokernel of Hom(P0, N) -> Hom(K, N) for the
    projective-cover presentation 0 -> K -> P0 -> M -> 0; Hom(P0, N) is the
    sum of N_v over the cover's generators (Yoneda)."""
    if m.spec != n.spec:
        raise TypeMismatchError("modules live over different algebras")
    if m.total_dim == 0:
        return 0
    pres = projective_cover_presentation(basis, m)
    value = (
        hom_dim(pres.kernel, n)
        - sum(n.dims[v] for v, _ in pres.generators)
        + hom_dim(m, n)
    )
    if value < 0:
        raise ConsistencyError("negative Ext dimension; presentation is broken")
    return value


def is_projective(basis: PathBasis, rep: Representation) -> bool:
    """A module is projective iff its projective cover has the same dimension
    vector (the cover is then an isomorphism)."""
    tops = top_dims(rep)
    expected = tuple(
        sum(count * len(basis.paths_between(v, u)) for v, count in enumerate(tops))
        for u in range(rep.spec.vertex_count)
    )
    return expected == rep.dims


def pd_at_most_1(basis: PathBasis, rep: Representation) -> bool:
    if rep.total_dim == 0:
        return True
    pres = projective_cover_presentation(basis, rep)
    return is_projective(basis, pres.kernel)


# ---------------------------------------------------------------------------
# Random fixtures: quotients of projective sums (always valid)
# ---------------------------------------------------------------------------


def random_representation(
    basis: PathBasis,
    rng,
    max_summands: int = 2,
    max_generators: int = 3,
) -> Representation:
    spec = basis.spec
    count = rng.randint(1, max_summands)
    p = direct_sum(*(projective(basis, rng.randrange(spec.vertex_count)) for _ in range(count)))
    gens: list[Element] = []
    for _ in range(rng.randint(0, max_generators)):
        candidates = [v for v in range(spec.vertex_count) if p.dims[v] > 0]
        if not candidates:
            break
        v = rng.choice(candidates)
        coords = tuple(Fraction(rng.randint(-2, 2)) for _ in range(p.dims[v]))
        gens.append((v, coords))
    quot, _ = quotient_by_elements(p, gens)
    return quot


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def rep_to_json(rep: Representation) -> dict:
    return {
        "dims": list(rep.dims),
        "arrows": {
            label: [[frac_to_str(x) for x in row] for row in matrix(rep, label)]
            for label in sorted(rep.columns)
        },
    }


_REP = {"dims": [parse_int], "arrows?": {str: [[parse_frac]]}}


def rep_from_json(spec: AlgebraSpec, data: dict) -> Representation:
    doc = read(_REP, data, "representation")
    rep = make_representation(spec, doc["dims"], doc.get("arrows", {}))
    validate(rep)
    return rep
