import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat import linalg, pp, reps
from tubelat.errors import ContractViolationError, SpecFormatError, TypeMismatchError
from tubelat.pp import (
    PpPair,
    arrow_divisibility,
    coker_of_point,
    formula_from_json,
    formula_to_json,
    free_realisation,
    make_formula,
    meet,
    pair_open_on,
    plus,
    pushout_pointed,
    solution_dim,
    solution_space,
    sum_pointed,
    tautology,
    zero_formula,
)

from test_reps import module_fixtures, path_matrix, same_module
from test_linalg import dense, same_subspace, subspace_intersection, subspace_sum

ONE = Fraction(1)
ZERO = Fraction(0)


def random_formula(spec, basis, rng, free_type=None, max_bound=2, max_rows=2):
    n = spec.vertex_count
    free_t = rng.randrange(n) if free_type is None else free_type
    bound = rng.randint(0, max_bound)
    col_types = [free_t] + [rng.randrange(n) for _ in range(bound)]
    rows = rng.randint(0, max_rows)
    row_types = [rng.randrange(n) for _ in range(rows)]
    entries = []
    for r in range(rows):
        row = []
        for c in range(len(col_types)):
            combo = []
            for p in basis.paths_between(col_types[c], row_types[r]):
                if rng.random() < 0.5:
                    combo.append((Fraction(rng.choice([-2, -1, 1, 2])), p))
            row.append(tuple(combo))
        entries.append(tuple(row))
    return make_formula(spec, 1, col_types, row_types, entries)


def nonzero_fixture(basis, rng):
    m = reps.random_representation(basis, rng)
    while m.total_dim == 0:
        m = reps.random_representation(basis, rng)
    return m


def test_tautology_and_zero(spec, basis):
    rng = random.Random(31)
    m = nonzero_fixture(basis, rng)
    for t in range(6):
        assert solution_dim(tautology(spec, t), m) == m.dims[t]
        assert solution_dim(zero_formula(spec, t), m) == 0


def test_divisibility_matches_arrow_image(spec, basis):
    rng = random.Random(32)
    for label in ("a11", "a22", "beta", "gamma"):
        arrow = spec.arrow_map()[label]
        m = nonzero_fixture(basis, rng)
        sol = solution_space(arrow_divisibility(spec, label), m)
        image = [
            [reps.matrix(m, label)[i][j] for i in range(m.dims[arrow.tgt])]
            for j in range(m.dims[arrow.src])
        ]
        assert same_subspace(sol, image, m.dims[arrow.tgt])


def test_formula_type_checking(spec):
    with pytest.raises(SpecFormatError):
        # beta runs 3 -> 1, so it cannot constrain a type-6 variable
        make_formula(spec, 1, (5,), (0,), ((((ONE, ("beta",)),),),))


def test_meet_plus_lattice_identities(spec, basis):
    rng = random.Random(33)
    for _ in range(8):
        t = rng.randrange(6)
        phi = random_formula(spec, basis, rng, free_type=t)
        m = nonzero_fixture(basis, rng)
        dim = m.dims[t]
        sol = solution_space(phi, m)
        with_taut = solution_space(meet(phi, tautology(spec, t)), m)
        assert same_subspace(sol, with_taut, dim)
        with_zero = solution_space(plus(phi, zero_formula(spec, t)), m)
        assert same_subspace(sol, with_zero, dim)
        # idempotence on fixtures
        assert same_subspace(sol, solution_space(meet(phi, phi), m), dim)
        assert same_subspace(sol, solution_space(plus(phi, phi), m), dim)


def test_meet_plus_against_subspace_oracle(spec, basis):
    rng = random.Random(34)
    for _ in range(12):
        t = rng.randrange(6)
        phi = random_formula(spec, basis, rng, free_type=t)
        psi = random_formula(spec, basis, rng, free_type=t)
        m = nonzero_fixture(basis, rng)
        dim = m.dims[t]
        sa, sb = solution_space(phi, m), solution_space(psi, m)
        assert same_subspace(
            solution_space(meet(phi, psi), m),
            subspace_intersection(sa, sb, dim),
            dim,
        )
        assert same_subspace(
            solution_space(plus(phi, psi), m),
            subspace_sum(sa, sb, dim),
            dim,
        )


def test_meet_requires_matching_free_types(spec, basis):
    with pytest.raises(TypeMismatchError):
        meet(tautology(spec, 0), tautology(spec, 1))


def test_element_in_solution_takes_exactly_the_free_blocks_coordinates(spec, basis):
    # the free block of a type-2 variable on P6 has one coordinate
    p, phi = reps.projective(basis, 5), tautology(spec, 1)
    with pytest.raises(TypeMismatchError, match="1 coordinates expected, 3 given"):
        pp.element_in_solution(phi, p, (1, 1, 1))
    assert pp.element_in_solution(phi, p, (1,)) is True


@pytest.mark.parametrize("bad", [0.5, True], ids=repr)
def test_element_in_solution_reads_its_coordinates_as_rationals(spec, basis, bad):
    p, phi = reps.projective(basis, 5), tautology(spec, 1)
    with pytest.raises(SpecFormatError, match=f"not a rational: {bad!r}"):
        pp.element_in_solution(phi, p, (bad,))
    assert pp.element_in_solution(phi, p, ("1/2",)) is True


def test_free_realisation_of_tautology_and_zero(spec, basis):
    for t in range(6):
        fr = free_realisation(basis, tautology(spec, t))
        p = reps.projective(basis, t)
        assert fr.module.dims == p.dims
        v, coords = fr.point
        assert v == t and any(c != 0 for c in coords)
        fr0 = free_realisation(basis, zero_formula(spec, t))
        assert fr0.module.total_dim == 0


def test_free_realisation_point_satisfies_formula(spec, basis):
    rng = random.Random(35)
    for _ in range(10):
        phi = random_formula(spec, basis, rng)
        fr = free_realisation(basis, phi)
        v, coords = fr.point
        assert pp.element_in_solution(phi, fr.module, coords)


def test_generated_identity_for_solution_dims(spec, basis):
    """dim phi(N) = hom(M_phi, N) - hom(coker(point), N) on random pairs."""
    rng = random.Random(36)
    for _ in range(15):
        phi = random_formula(spec, basis, rng)
        fr = free_realisation(basis, phi)
        cok = coker_of_point(fr)
        for _ in range(2):
            n = reps.random_representation(basis, rng)
            assert solution_dim(phi, n) == reps.hom_dim(fr.module, n) - reps.hom_dim(
                cok, n
            )


def test_solvability_criterion_both_directions(spec, basis):
    rng = random.Random(37)
    positives = negatives = 0
    while positives < 8 or negatives < 8:
        phi = random_formula(spec, basis, rng)
        fr = free_realisation(basis, phi)
        n = reps.random_representation(basis, rng)
        t = phi.col_types[0]
        sol = solution_space(phi, n)
        if sol and positives < 8:
            coeffs = [Fraction(rng.randint(-2, 2)) for _ in sol]
            target = tuple(
                sum((c * vec[i] for c, vec in zip(coeffs, sol)), Fraction(0))
                for i in range(n.dims[t])
            )
            f = reps.morphism_taking(fr.module, n, [(fr.point, (t, target))])
            assert f is not None
            assert reps.apply_morphism(f, fr.point) == (t, target)
            positives += 1
        for _ in range(4):
            cand = tuple(Fraction(rng.randint(-2, 2)) for _ in range(n.dims[t]))
            if not linalg.in_span(sol, list(cand), n.dims[t]):
                assert reps.morphism_taking(fr.module, n, [(fr.point, (t, cand))]) is None
                negatives += 1
                break


def test_solution_sets_preserved_by_morphisms(spec, basis):
    rng = random.Random(38)
    for _ in range(8):
        phi = random_formula(spec, basis, rng)
        t = phi.col_types[0]
        m = nonzero_fixture(basis, rng)
        n = reps.random_representation(basis, rng)
        sol_m = solution_space(phi, m)
        sol_n = solution_space(phi, n)
        for f in reps.hom_basis(m, n)[:3]:
            for vec in sol_m:
                _, image = reps.apply_morphism(f, (t, tuple(vec)))
                assert linalg.in_span(sol_n, list(image), n.dims[t])


def test_coker_of_point_examples(spec, basis):
    t = 5
    fr = free_realisation(basis, tautology(spec, t))
    assert coker_of_point(fr).total_dim == 0  # generator generates
    zero_pointed = pp.PointedModule(module=fr.module, points=((t, (Fraction(0),)),))
    assert coker_of_point(zero_pointed).dims == fr.module.dims


def test_coker_dimension_count(spec, basis):
    rng = random.Random(39)
    for _ in range(6):
        phi = random_formula(spec, basis, rng)
        fr = free_realisation(basis, phi)
        closure = reps.submodule_closure(fr.module, list(fr.points))
        generated = sum(len(b) for b in closure)
        assert coker_of_point(fr).total_dim == fr.module.total_dim - generated


def test_pushout_with_tautology_is_identity_like(spec, basis):
    rng = random.Random(40)
    for label in ("a11", "beta"):
        phi = arrow_divisibility(spec, label)
        t = phi.col_types[0]
        fr = free_realisation(basis, phi)
        po = pushout_pointed(fr, free_realisation(basis, tautology(spec, t)))
        assert po.module.dims == fr.module.dims
        m = nonzero_fixture(basis, rng)
        # pp-type of the pushout point cuts out the same solution sets
        lhs = solution_dim(phi, m)
        rhs = reps.hom_dim(po.module, m) - reps.hom_dim(coker_of_point(po), m)
        assert lhs == rhs


def test_pushout_with_zero_gives_cokernel(spec, basis):
    phi = arrow_divisibility(spec, "a11")
    t = phi.col_types[0]
    fr = free_realisation(basis, phi)
    po = pushout_pointed(fr, free_realisation(basis, zero_formula(spec, t)))
    cok = coker_of_point(fr)
    assert po.module.dims == cok.dims
    assert all(c == 0 for c in po.points[0][1])


def test_pushout_realises_meet(spec, basis):
    rng = random.Random(41)
    for _ in range(8):
        t = rng.randrange(6)
        phi = random_formula(spec, basis, rng, free_type=t)
        psi = random_formula(spec, basis, rng, free_type=t)
        po = pushout_pointed(free_realisation(basis, phi), free_realisation(basis, psi))
        cok = coker_of_point(po)
        both = meet(phi, psi)
        for _ in range(2):
            x = reps.random_representation(basis, rng)
            lhs = solution_dim(both, x)
            rhs = reps.hom_dim(po.module, x) - reps.hom_dim(cok, x)
            assert lhs == rhs


def test_sum_pointed(spec, basis):
    rng = random.Random(42)
    t = 2
    phi = random_formula(spec, basis, rng, free_type=t)
    psi = random_formula(spec, basis, rng, free_type=t)
    fa, fb = free_realisation(basis, phi), free_realisation(basis, psi)
    s = sum_pointed(fa, fb)
    assert s.module.dims == tuple(x + y for x, y in zip(fa.module.dims, fb.module.dims))
    # realises the sum: same solution dims via the generated identity
    cok = coker_of_point(s)
    total = plus(phi, psi)
    for _ in range(3):
        x = reps.random_representation(basis, rng)
        assert solution_dim(total, x) == reps.hom_dim(s.module, x) - reps.hom_dim(cok, x)
    # summing with the zero module changes nothing
    zero_fr = free_realisation(basis, zero_formula(spec, t))
    same = sum_pointed(fa, zero_fr)
    assert same.module.dims == fa.module.dims


def test_pair_open_closed(spec, basis):
    rng = random.Random(43)
    m = nonzero_fixture(basis, rng)
    t = next(v for v in range(6) if m.dims[v] > 0)
    taut, zero = tautology(spec, t), zero_formula(spec, t)
    assert pair_open_on(PpPair(phi=taut, psi=zero), m) is True
    assert pair_open_on(PpPair(phi=taut, psi=zero), reps.zero_rep(spec)) is False
    assert pair_open_on(PpPair(phi=taut, psi=taut), m) is False
    # a fixture with a nonzero arrow image: image/0 is open
    label, arrow = "beta", spec.arrow_map()["beta"]
    fixture = reps.projective(basis, 5)
    div = arrow_divisibility(spec, label)
    assert pair_open_on(PpPair(phi=div, psi=zero_formula(spec, arrow.tgt)), fixture)


def test_pair_containment_contract(spec, basis):
    rng = random.Random(44)
    m = nonzero_fixture(basis, rng)
    t = next(v for v in range(6) if m.dims[v] > 0)
    with pytest.raises(ContractViolationError):
        pair_open_on(PpPair(phi=zero_formula(spec, t), psi=tautology(spec, t)), m)


def test_formula_json_round_trip(spec, basis):
    rng = random.Random(45)
    for _ in range(10):
        phi = random_formula(spec, basis, rng)
        data = formula_to_json(phi)
        assert formula_from_json(spec, data) == phi
    # row types can be derived from entries when omitted
    phi = arrow_divisibility(spec, "beta")
    data = formula_to_json(phi)
    del data["rows"]
    assert formula_from_json(spec, data) == phi


@pytest.mark.parametrize("row, col", [(-1, 0), (0, -1), (-1, -1)])
def test_formula_json_rejects_negative_indices(spec, row, col):
    entry = {"row": row, "col": col, "terms": []}
    with pytest.raises(SpecFormatError):
        formula_from_json(spec, {"free": 1, "types": [1], "rows": [1], "entries": [entry]})
    # without "rows" the row types are derived from the entries
    with pytest.raises(SpecFormatError):
        formula_from_json(spec, {"free": 1, "types": [1], "entries": [entry]})


# The dense ``solution_space`` that the map rows replaced, kept as the
# reference (with the dense ``path_matrix`` kept in test_reps); it writes the
# kernel and the basis, which linalg returns as maps, out densely.
def dense_solution_space(phi, m):
    """Echelonized basis of phi(M) inside the free coordinate block."""
    pp._check_compatible(phi, m)
    col_dims = [m.dims[t] for t in phi.col_types]
    col_offsets = []
    total = 0
    for d in col_dims:
        col_offsets.append(total)
        total += d
    rows = []
    for r, row_type in enumerate(phi.row_types):
        height = m.dims[row_type]
        if height == 0:
            continue
        block_rows = [[ZERO] * total for _ in range(height)]
        for c, combo in enumerate(phi.entries[r]):
            width, off = col_dims[c], col_offsets[c]
            if not combo or width == 0:
                continue
            for coeff, path in combo:
                pm = path_matrix(m, path, src_hint=phi.col_types[c])
                for i in range(height):
                    for j in range(width):
                        if pm[i][j]:
                            block_rows[i][off + j] += coeff * pm[i][j]
        rows.extend(block_rows)
    kernel = dense(linalg.nullspace(rows, total), total)
    free_dim = pp.free_ambient_dim(phi, m)
    projected = [vec[:free_dim] for vec in kernel]
    return dense(linalg.column_space_basis(projected, free_dim), free_dim)


def test_solution_spaces_match_the_dense_reference(spec, basis):
    rng = random.Random(64)
    modules = module_fixtures(spec, basis)
    for t in range(6):
        formulas = [tautology(spec, t), zero_formula(spec, t)]
        formulas += [random_formula(spec, basis, rng, free_type=t, max_bound=3, max_rows=3) for _ in range(4)]
        formulas += [meet(formulas[2], formulas[3]), plus(formulas[4], formulas[5])]
        formulas += [arrow_divisibility(spec, a.label) for a in spec.arrows if a.tgt == t]
        for phi in formulas:
            for m in modules:
                assert solution_space(phi, m) == dense_solution_space(phi, m)


# The ``free_realisation`` that pushing generators replaced, kept verbatim as
# the reference: entries reduced to path-basis coordinates of each summand and
# embedded by the summands' offsets in a pairwise direct sum.
def reference_free_realisation(basis, phi):
    spec = phi.spec
    summands = [reps.projective(basis, t) for t in phi.col_types]
    free_mod = reps.zero_rep(spec)
    offsets = []
    for s in summands:
        offsets.append(free_mod.dims)
        free_mod = reps.direct_sum(free_mod, s)

    def embed(col, elem):
        v, coords = elem
        before = offsets[col][v]
        after = free_mod.dims[v] - before - summands[col].dims[v]
        return (v, (ZERO,) * before + tuple(coords) + (ZERO,) * after)

    relation_elements = []
    for r, row_type in enumerate(phi.row_types):
        acc = [ZERO] * free_mod.dims[row_type]
        nonzero = False
        for c, combo in enumerate(phi.entries[r]):
            if not combo:
                continue
            paths = basis.paths_between(phi.col_types[c], row_type)
            index = {p: k for k, p in enumerate(paths)}
            local = [ZERO] * summands[c].dims[row_type]
            for coeff, path in combo:
                for word, red_coeff in basis.reduce(path).items():
                    local[index[word]] += coeff * red_coeff
            _, coords = embed(c, (row_type, tuple(local)))
            acc = [x + y for x, y in zip(acc, coords)]
            nonzero = True
        if nonzero and any(x != 0 for x in acc):
            relation_elements.append((row_type, tuple(acc)))

    module, reducers = reps.quotient_by_elements(free_mod, relation_elements)
    points = []
    for c in range(phi.free_count):
        t = phi.col_types[c]
        # the trivial path of P_t, as an element at vertex t
        generator = (t, tuple(ONE if p == () else ZERO for p in basis.paths_between(t, t)))
        gen = embed(c, generator)
        points.append((t, tuple(reducers[t](gen[1]))))
    return pp.PointedModule(module=module, points=tuple(points))


def quiver_paths(spec, src, tgt):
    """Every path from src to tgt in the quiver, normal form or not."""
    found, stack = [], [(src, ())]
    while stack:
        v, path = stack.pop()
        if v == tgt:
            found.append(path)
        stack += [(a.tgt, path + (a.label,)) for a in spec.arrows if a.src == v]
    return sorted(found)


def random_formula_with_free(spec, rng, free_count, head=None):
    """Up to three rows over ``free_count`` free and up to two bound
    variables whose types repeat, the free ones of the types ``head`` if
    given; each row's type is reached by a path from some column, and
    entries mix quiver paths with coefficients of either sign."""
    pool = rng.sample(range(spec.vertex_count), 3)
    col_types = [rng.choice(pool) for _ in range(free_count + rng.randint(0, 2))]
    if head is not None:
        col_types[:free_count] = head
    targets = [u for t in col_types for u in range(spec.vertex_count) if quiver_paths(spec, t, u)]
    row_types = [rng.choice(targets or pool) for _ in range(rng.randint(0, 3))]
    entries = [
        [
            tuple(
                (Fraction(rng.choice([-2, -1, 1, 2, 3])), path)
                for path in quiver_paths(spec, t, u)
                if rng.random() < 0.6
            )
            for t in col_types
        ]
        for u in row_types
    ]
    return make_formula(spec, free_count, col_types, row_types, entries)


@pytest.mark.parametrize("lam", [Fraction(2), Fraction(-1), Fraction(5, 3)], ids=str)
def test_free_realisations_match_the_reference(lam):
    from tubelat.algebra import build_c4, derive_path_basis

    spec = build_c4(lam)
    basis = derive_path_basis(spec)
    rng = random.Random(66)
    cut = 0  # realisations that some relation makes smaller than the free module
    for free_count in (0, 1, 2):
        for _ in range(20):
            phi = random_formula_with_free(spec, rng, free_count)
            got, want = free_realisation(basis, phi), reference_free_realisation(basis, phi)
            assert same_module(got.module, want.module)
            assert got.points == want.points
            free_dim = sum(len(basis.paths_between(t, u)) for t in phi.col_types for u in range(6))
            cut += got.module.total_dim < free_dim
    assert cut >= 20


# ---------------------------------------------------------------------------
# meet and plus as they were, one loop per placed block, kept as the
# reference for the constructions that place each formula by one column map.
# ---------------------------------------------------------------------------


def reference_meet(phi, psi):
    pp._check_same_free(phi, psi)
    f = phi.free_count
    col_types = phi.col_types[:f] + phi.col_types[f:] + psi.col_types[f:]
    zero_a = ((),) * phi.bound_count
    zero_b = ((),) * psi.bound_count
    entries = []
    for row in phi.entries:
        entries.append(row[:f] + row[f:] + zero_b)
    for row in psi.entries:
        entries.append(row[:f] + zero_a + row[f:])
    return make_formula(phi.spec, f, col_types, phi.row_types + psi.row_types, tuple(entries))


def reference_plus(phi, psi):
    pp._check_same_free(phi, psi)
    f = phi.free_count
    head = phi.col_types[:f]
    col_types = head + head + head + phi.col_types[f:] + psi.col_types[f:]
    n_cols = len(col_types)
    entries = []
    row_types = []
    for i, t in enumerate(head):
        row = [()] * n_cols
        row[i] = ((ONE, ()),)
        row[f + i] = ((-ONE, ()),)
        row[2 * f + i] = ((-ONE, ()),)
        entries.append(tuple(row))
        row_types.append(t)
    for r, row in enumerate(phi.entries):
        new = [()] * n_cols
        for c in range(f):
            new[f + c] = row[c]
        for c in range(phi.bound_count):
            new[3 * f + c] = row[f + c]
        entries.append(tuple(new))
        row_types.append(phi.row_types[r])
    for r, row in enumerate(psi.entries):
        new = [()] * n_cols
        for c in range(f):
            new[2 * f + c] = row[c]
        for c in range(psi.bound_count):
            new[3 * f + phi.bound_count + c] = row[f + c]
        entries.append(tuple(new))
        row_types.append(psi.row_types[r])
    return make_formula(phi.spec, f, col_types, tuple(row_types), tuple(entries))


@given(free_count=st.sampled_from([0, 1, 2]), rng=st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_meet_and_plus_match_the_reference_constructions(spec, free_count, rng):
    head = [rng.randrange(spec.vertex_count) for _ in range(free_count)]
    phi, psi = (random_formula_with_free(spec, rng, free_count, head) for _ in range(2))
    assert meet(phi, psi) == reference_meet(phi, psi)
    assert plus(phi, psi) == reference_plus(phi, psi)
