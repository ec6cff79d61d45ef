"""Pp formulas over the path algebra and their solution subgroups.

A formula is a matrix H whose entries are path combinations; columns carry
vertex types (one per variable, free variables first) and rows carry target
vertex types.  On a module M the formula cuts out the projection onto the
free coordinates of the kernel of the induced block matrix:

    phi(M) = { v : exists w, H (v, w)^T = 0 }.

Free realisations are built concretely: the presented module is the quotient
of a direct sum of projectives (one per variable) by the submodule generated
by the row elements of H, with the images of the free generators marked.
The action convention (paths push column variables into row slots) is pinned
by the solvability law: an element n lies in phi(N) exactly when some
morphism from the free realisation carries the marked element to n.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate

from . import linalg
from .algebra import AlgebraSpec, Path, PathBasis
from .errors import ContractViolationError, SpecFormatError, TypeMismatchError
from .linalg import ONE, ZERO
from .reps import (
    Element,
    Representation,
    _coords,
    act,
    direct_sum,
    projective,
    quotient_by_elements,
    zero_rep,
)
from .serialize import frac_to_str, label, parse_frac, parse_int, read
from .value import Value

AlgElement = tuple[tuple[Fraction, Path], ...]


class PpFormula(Value):
    # entries: rows x cols of AlgElement, () means zero
    __slots__ = ("spec", "free_count", "col_types", "row_types", "entries")

    @property
    def bound_count(self) -> int:
        return len(self.col_types) - self.free_count


def make_formula(
    spec: AlgebraSpec,
    free_count: int,
    col_types,
    row_types,
    entries,
) -> PpFormula:
    free_count = parse_int(free_count)
    col_types = tuple(map(parse_int, col_types))
    row_types = tuple(map(parse_int, row_types))
    if not 0 <= free_count <= len(col_types):
        raise SpecFormatError("free variable count out of range")
    for t in col_types + row_types:
        if not 0 <= t < spec.vertex_count:
            raise SpecFormatError(f"vertex type {t} out of range")
    norm_rows = []
    if len(entries) != len(row_types):
        raise SpecFormatError("entry row count does not match row types")
    for r, row in enumerate(entries):
        if len(row) != len(col_types):
            raise SpecFormatError("entry column count does not match column types")
        norm_row = []
        for c, combo in enumerate(row):
            norm = []
            for coeff, path in combo:
                coeff = parse_frac(coeff)
                if isinstance(path, str):
                    raise SpecFormatError(f"path {path!r} is a text, not a sequence of labels")
                path = tuple(path)
                src, tgt = spec.path_endpoints(path, src_hint=col_types[c])
                if src != col_types[c] or tgt != row_types[r]:
                    raise SpecFormatError(
                        f"entry ({r},{c}) path {'.'.join(path) or 'e'} does not run "
                        f"from type {col_types[c]} to type {row_types[r]}"
                    )
                if coeff != 0:
                    norm.append((coeff, path))
            norm_row.append(tuple(norm))
        norm_rows.append(tuple(norm_row))
    return PpFormula(
        spec=spec,
        free_count=free_count,
        col_types=col_types,
        row_types=row_types,
        entries=tuple(norm_rows),
    )


def tautology(spec: AlgebraSpec, t: int) -> PpFormula:
    """v = v at vertex type t: no constraints at all."""
    return make_formula(spec, 1, (t,), (), ())


def zero_formula(spec: AlgebraSpec, t: int) -> PpFormula:
    """v = 0 at vertex type t."""
    return make_formula(spec, 1, (t,), (t,), ((((ONE, ()),),),))


def arrow_divisibility(spec: AlgebraSpec, label: str) -> PpFormula:
    """exists w (v = alpha.w) for the arrow alpha."""
    arrow = spec.arrow_map().get(label)
    if arrow is None:
        raise SpecFormatError(f"unknown arrow {label!r}")
    entries = ((((ONE, ()),), ((-ONE, (label,)),)),)
    return make_formula(spec, 1, (arrow.tgt, arrow.src), (arrow.tgt,), entries)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def free_ambient_dim(phi: PpFormula, m: Representation) -> int:
    return sum(m.dims[t] for t in phi.col_types[: phi.free_count])


def _check_compatible(phi: PpFormula, m: Representation) -> None:
    if phi.spec != m.spec:
        raise TypeMismatchError("formula and module live over different algebras")


def solution_space(phi: PpFormula, m: Representation) -> list[list[Fraction]]:
    """Echelonized basis of phi(M) inside the free coordinate block, dense."""
    _check_compatible(phi, m)
    col_dims = [m.dims[t] for t in phi.col_types]
    *col_offsets, total = accumulate(col_dims, initial=0)
    rows: list[dict[int, Fraction]] = []
    for r, row_type in enumerate(phi.row_types):
        block_rows: list[dict[int, Fraction]] = [{} for _ in range(m.dims[row_type])]
        for c, combo in enumerate(phi.entries[r]):
            for j in range(col_dims[c]):
                # column j of the (r, c) block is the image of e_j under the entry
                for i, x in act(m, combo, {j: ONE}).items():
                    block_rows[i][col_offsets[c] + j] = x
        rows.extend(block_rows)
    kernel = linalg.nullspace(rows, total)
    free_dim = free_ambient_dim(phi, m)
    projected = [{j: x for j, x in vec.items() if j < free_dim} for vec in kernel]
    basis = linalg.column_space_basis(projected, free_dim)
    return [[row.get(j, ZERO) for j in range(free_dim)] for row in basis]


def solution_dim(phi: PpFormula, m: Representation) -> int:
    return len(solution_space(phi, m))


def element_in_solution(phi: PpFormula, m: Representation, coords) -> bool:
    """Membership in phi(M) of a free-block coordinate vector, read by ``_coords``."""
    basis = solution_space(phi, m)
    dim = free_ambient_dim(phi, m)
    return linalg.in_span(basis, _coords(coords, dim), dim)


# ---------------------------------------------------------------------------
# Lattice operations on formulas
# ---------------------------------------------------------------------------


def _check_same_free(phi: PpFormula, psi: PpFormula) -> None:
    if phi.spec != psi.spec:
        raise TypeMismatchError("formulas live over different algebras")
    if (
        phi.free_count != psi.free_count
        or phi.col_types[: phi.free_count] != psi.col_types[: psi.free_count]
    ):
        raise TypeMismatchError("formulas have different free variable signatures")


def _placed(row, cols, width: int) -> tuple:
    """The cells of ``row`` at columns ``cols`` of a row of ``width`` cells,
    every other cell zero."""
    out = [()] * width
    for c, cell in zip(cols, row):
        out[c] = cell
    return tuple(out)


def meet(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """phi and psi: stack both systems, sharing the free variables; psi's
    bound variables follow phi's."""
    _check_same_free(phi, psi)
    f, a = phi.free_count, len(phi.col_types)
    width = a + psi.bound_count
    entries = [_placed(row, range(a), width) for row in phi.entries]
    entries += [_placed(row, [*range(f), *range(a, width)], width) for row in psi.entries]
    col_types = phi.col_types + psi.col_types[f:]
    return make_formula(phi.spec, f, col_types, phi.row_types + psi.row_types, entries)


def plus(phi: PpFormula, psi: PpFormula) -> PpFormula:
    """phi + psi: v = v' + v'' with v' constrained by phi and v'' by psi; the
    columns are v, v', v'', then phi's and psi's bound variables."""
    _check_same_free(phi, psi)
    f, a = phi.free_count, phi.bound_count
    head = phi.col_types[:f]
    width = 3 * f + a + psi.bound_count
    sum_row = (((ONE, ()),), ((-ONE, ()),), ((-ONE, ()),))  # v_i - v'_i - v''_i = 0
    entries = [_placed(sum_row, (i, f + i, 2 * f + i), width) for i in range(f)]
    entries += [_placed(row, [*range(f, 2 * f), *range(3 * f, 3 * f + a)], width) for row in phi.entries]
    entries += [_placed(row, [*range(2 * f, 3 * f), *range(3 * f + a, width)], width) for row in psi.entries]
    col_types = head * 3 + phi.col_types[f:] + psi.col_types[f:]
    return make_formula(phi.spec, f, col_types, head + phi.row_types + psi.row_types, entries)


# ---------------------------------------------------------------------------
# Pointed modules and free realisations
# ---------------------------------------------------------------------------


class PointedModule(Value):
    __slots__ = ("module", "points")  # a Representation, a tuple of Element

    @property
    def point(self) -> Element:
        if len(self.points) != 1:
            raise TypeMismatchError("module is not single-pointed")
        return self.points[0]


def free_realisation(basis: PathBasis, phi: PpFormula) -> PointedModule:
    """The module presented by H, with the free generators' images marked.

    Quotients the direct sum of one projective per variable by the submodule
    generated by the row elements of H: row r's element sums the images of
    the variables' generators (trivial paths) under its entries.
    """
    types = phi.col_types
    summand = {t: projective(basis, t) for t in set(types)}
    free_mod = direct_sum(zero_rep(phi.spec), *(summand[t] for t in types))
    # the generator's position: the summands before it, then its trivial path
    gens = [
        sum(len(basis.paths_between(s, t)) for s in types[:c]) + basis.paths_between(t, t).index(())
        for c, t in enumerate(types)
    ]

    relation_elements: list[Element] = []
    for r, row_type in enumerate(phi.row_types):
        elem = [ZERO] * free_mod.dims[row_type]
        for combo, g in zip(phi.entries[r], gens):
            for i, x in act(free_mod, combo, {g: ONE}).items():
                elem[i] += x
        if any(elem):
            relation_elements.append((row_type, tuple(elem)))

    module, reducers = quotient_by_elements(free_mod, relation_elements)
    points = []
    for t, g in zip(types[: phi.free_count], gens):
        gen = [ZERO] * free_mod.dims[t]
        gen[g] = ONE
        points.append((t, tuple(reducers[t](gen))))
    return PointedModule(module=module, points=tuple(points))


def coker_of_point(pm: PointedModule) -> Representation:
    """The quotient of the module by the submodule its points generate."""
    quot, _ = quotient_by_elements(pm.module, list(pm.points))
    return quot


def _check_matching_points(pma: PointedModule, pmb: PointedModule) -> None:
    if pma.module.spec != pmb.module.spec:
        raise TypeMismatchError("pointed modules live over different algebras")
    if len(pma.points) != len(pmb.points):
        raise TypeMismatchError("pointed modules have different point counts")
    for (v, _), (w, _) in zip(pma.points, pmb.points):
        if v != w:
            raise TypeMismatchError("points have different vertex types")


def pushout_pointed(pma: PointedModule, pmb: PointedModule) -> PointedModule:
    """Pushout of the two point maps out of the free rank-1 module; realises
    the meet when the inputs are free realisations."""
    _check_matching_points(pma, pmb)
    if len(pma.points) != 1:
        raise TypeMismatchError("pushout needs single-pointed modules")
    # the sum lists pma's coordinates, then pmb's: the glue is (m, -m')
    (t, ca), (_, cb) = pma.points[0], pmb.points[0]
    glue = (t, tuple(ca) + tuple(-y for y in cb))
    module, reducers = quotient_by_elements(direct_sum(pma.module, pmb.module), [glue])
    point = (t, tuple(reducers[t](tuple(ca) + (ZERO,) * len(cb))))
    return PointedModule(module=module, points=(point,))


def sum_pointed(pma: PointedModule, pmb: PointedModule) -> PointedModule:
    """(M + M', (m, m')): realises the sum of the realised formulas."""
    _check_matching_points(pma, pmb)
    points = tuple((v, tuple(ca) + tuple(cb)) for (v, ca), (_, cb) in zip(pma.points, pmb.points))
    return PointedModule(module=direct_sum(pma.module, pmb.module), points=points)


# ---------------------------------------------------------------------------
# Pp pairs
# ---------------------------------------------------------------------------


class PpPair(Value):
    __slots__ = ("phi", "psi")


def pair_open_on(pair: PpPair, m: Representation) -> bool:
    """True iff psi(M) is strictly smaller than phi(M); requires containment."""
    _check_same_free(pair.phi, pair.psi)
    phi_space = solution_space(pair.phi, m)
    psi_space = solution_space(pair.psi, m)
    dim = free_ambient_dim(pair.phi, m)
    if not linalg.subspace_leq(psi_space, phi_space, dim):
        raise ContractViolationError("psi(M) is not contained in phi(M)")
    return len(phi_space) > len(psi_space)


# ---------------------------------------------------------------------------
# JSON wire format (vertices 1-based on the wire)
# ---------------------------------------------------------------------------


def formula_to_json(phi: PpFormula) -> dict:
    entries = []
    for r, row in enumerate(phi.entries):
        for c, combo in enumerate(row):
            if combo:
                entries.append(
                    {
                        "row": r,
                        "col": c,
                        "terms": [
                            {"coeff": frac_to_str(coeff), "path": list(path)}
                            for coeff, path in combo
                        ],
                    }
                )
    return {
        "free": phi.free_count,
        "bound": phi.bound_count,
        "types": [t + 1 for t in phi.col_types],
        "rows": [t + 1 for t in phi.row_types],
        "entries": entries,
    }


_FORMULA = {
    "free": parse_int,
    "bound?": parse_int,
    "types": [parse_int],
    "rows?": [parse_int],
    "entries?": [{"row": parse_int, "col": parse_int, "terms": [{"coeff": parse_frac, "path": [label]}]}],
}


def formula_from_json(spec: AlgebraSpec, data: dict) -> PpFormula:
    doc = read(_FORMULA, data, "pp formula")
    free, col_types = doc["free"], [t - 1 for t in doc["types"]]
    if "bound" in doc and doc["bound"] + free != len(col_types):
        raise SpecFormatError("pp formula.bound: free + bound does not match the type list")
    raw_entries = doc.get("entries", ())
    derive = "rows" not in doc  # then each row type is its entries' path target
    row_count = 1 + max((e["row"] for e in raw_entries), default=-1)
    row_types = [None] * row_count if derive else [t - 1 for t in doc["rows"]]
    entries = [[()] * len(col_types) for _ in row_types]
    for i, e in enumerate(raw_entries):
        r, c = e["row"], e["col"]
        if not (0 <= r < len(row_types) and 0 <= c < len(col_types)):
            raise SpecFormatError(f"pp formula.entries[{i}]: no cell ({r},{c}) in the type lists")
        entries[r][c] = tuple((t["coeff"], t["path"]) for t in e["terms"])
        if derive:
            for _, path in entries[r][c]:
                _, tgt = spec.path_endpoints(path, src_hint=col_types[c])
                if row_types[r] not in (None, tgt):
                    raise SpecFormatError(f"row {r} mixes target types")
                row_types[r] = tgt
    if None in row_types:
        raise SpecFormatError("row without entries needs explicit 'rows'")
    return make_formula(spec, free, col_types, row_types, entries)


def pointed_to_json(pm: PointedModule) -> dict:
    from .reps import rep_to_json

    return {
        "module": rep_to_json(pm.module),
        "points": [
            {"vertex": v + 1, "coords": [frac_to_str(x) for x in coords]}
            for v, coords in pm.points
        ],
    }
