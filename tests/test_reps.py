import random
from fractions import Fraction

import pytest

from tubelat.errors import SpecFormatError, TypeMismatchError, ValidationError
from tubelat import reps
from tubelat.reps import (
    compose_morphisms,
    direct_sum,
    ext_dim,
    hom_basis,
    hom_dim,
    is_morphism,
    make_representation,
    module_slope,
    pd_at_most_1,
    projective,
    random_representation,
    rep_from_json,
    rep_to_json,
    simple,
    validate,
    zero_rep,
)

from conftest import unit

H0 = (1, 1, 2, 1, 1, 0)
HINF = (0, 0, 1, 1, 1, 1)


def test_validate_zero_and_projectives(spec, basis):
    validate(zero_rep(spec))
    for i in range(6):
        p = projective(basis, i)
        validate(p)
        assert p.dims == tuple(row[i] for row in basis_cartan(spec, basis))


def basis_cartan(spec, basis):
    from tubelat.algebra import euler_data

    return euler_data(spec, basis).cartan


def test_validate_names_the_violated_relation(spec):
    one = Fraction(1)
    dims = (1, 1, 1, 1, 1, 1)
    maps = {a.label: [[one]] for a in spec.arrows}
    rep = make_representation(spec, dims, maps)
    with pytest.raises(ValidationError) as info:
        validate(rep)
    assert "relation" in str(info.value)


def test_make_representation_shape_errors(spec):
    with pytest.raises(SpecFormatError):
        make_representation(spec, (1,) * 6, {"beta": [[1], [2]]})
    with pytest.raises(SpecFormatError):
        make_representation(spec, (1,) * 6, {"nope": [[1]]})


def test_dim_vector_examples(spec, basis):
    for i in range(6):
        assert simple(spec, i).dims == unit(6, i)
    p3 = projective(basis, 2)
    s = direct_sum(p3, simple(spec, 0))
    assert s.dims == tuple(a + b for a, b in zip(p3.dims, unit(6, 0)))


def test_hom_projective_law(basis):
    rng = random.Random(23)
    projectives = [projective(basis, i) for i in range(6)]
    for _ in range(20):
        m = random_representation(basis, rng)
        validate(m)
        for i in range(6):
            assert hom_dim(projectives[i], m) == m.dims[i]


def test_hom_identity_and_simples(spec, basis):
    rng = random.Random(24)
    m = random_representation(basis, rng)
    while m.total_dim == 0:
        m = random_representation(basis, rng)
    assert hom_dim(m, m) >= 1
    for i in range(6):
        for j in range(6):
            assert hom_dim(simple(spec, i), simple(spec, j)) == (1 if i == j else 0)


def test_hom_additivity_over_direct_sum(basis):
    rng = random.Random(25)
    m = random_representation(basis, rng)
    n = random_representation(basis, rng)
    l = random_representation(basis, rng)
    mn = direct_sum(m, n)
    assert mn.dims == tuple(a + b for a, b in zip(m.dims, n.dims))
    assert hom_dim(mn, l) == hom_dim(m, l) + hom_dim(n, l)
    assert hom_dim(l, mn) == hom_dim(l, m) + hom_dim(l, n)


def test_morphism_composition_closure(basis):
    rng = random.Random(26)
    m = random_representation(basis, rng)
    n = random_representation(basis, rng)
    l = random_representation(basis, rng)
    for f in hom_basis(m, n)[:4]:
        assert is_morphism(m, n, f)
        for g in hom_basis(n, l)[:4]:
            composite = compose_morphisms(g, f, m.dims)
            assert is_morphism(m, l, composite)


def test_ext_of_projective_vanishes(basis):
    rng = random.Random(27)
    n = random_representation(basis, rng)
    for i in range(6):
        assert ext_dim(basis, projective(basis, i), n) == 0


def test_ext_nonsplit_extension(spec, basis):
    # two simples joined by the arrow beta: Ext^1(S_3, S_1) is 1-dimensional
    assert ext_dim(basis, simple(spec, 2), simple(spec, 0)) == 1
    assert ext_dim(basis, simple(spec, 0), simple(spec, 2)) == 0


def test_euler_identity_on_pd1_fixtures(lattice, basis):
    rng = random.Random(28)
    checked = 0
    while checked < 12:
        m = random_representation(basis, rng)
        if m.total_dim == 0 or not pd_at_most_1(basis, m):
            continue
        n = random_representation(basis, rng)
        lhs = lattice.bilinear(m.dims, n.dims)
        assert lhs == hom_dim(m, n) - ext_dim(basis, m, n)
        checked += 1


def test_full_alternating_identity_at_pd_two(spec, basis, lattice):
    # the simple at the source vertex has projective dimension 2 and its
    # syzygy is h0-dimensional; with the second-syzygy correction (dimension
    # shift) the alternating identity holds exactly
    s6 = simple(spec, 5)
    assert not pd_at_most_1(basis, s6)
    syzygy = reps.projective_cover_presentation(basis, s6).kernel
    assert syzygy.dims == (1, 1, 2, 1, 1, 0)
    rng = random.Random(55)
    for _ in range(10):
        n = random_representation(basis, rng)
        lhs = lattice.bilinear(s6.dims, n.dims)
        rhs = hom_dim(s6, n) - ext_dim(basis, s6, n) + ext_dim(basis, syzygy, n)
        assert lhs == rhs
    # first extensions between simples count the arrows
    for j in range(6):
        expected = sum(1 for a in spec.arrows if a.src == 5 and a.tgt == j)
        assert ext_dim(basis, s6, simple(spec, j)) == expected



def ladder_pair(spec, basis, n):
    """(A_n, B_n) of the benchmark's ladder: A_n = P6^n + P3 is projective and
    B_n = P6^(n+1)/P3 has the resolution 0 -> P3 -> P6^(n+1) -> B_n -> 0."""
    a = zero_rep(spec)
    for p in [projective(basis, 5)] * n + [projective(basis, 2)]:
        a = direct_sum(a, p)
    p6s = zero_rep(spec)
    for _ in range(n + 1):
        p6s = direct_sum(p6s, projective(basis, 5))
    for shift in range(4):
        # some coefficient patterns are killed by gamma for special lambda
        coords = tuple(Fraction((i + shift) % 3 + 1) for i in range(p6s.dims[2]))
        b, _ = reps.quotient_by_elements(p6s, [(2, coords)])
        if p6s.total_dim - b.total_dim == projective(basis, 2).total_dim:
            return a, b
    raise AssertionError("no generator of a copy of P3 found")


def test_hom_ext_on_the_largest_ladder_pair(spec, basis, lattice):
    # total dimension 39 / 38; the intertwiner system is 324 x 271 at about
    # 1 % nonzeros, which only a sparse elimination does in well under a second
    a, b = ladder_pair(spec, basis, 5)
    assert (b.total_dim, a.total_dim) == (39, 38)
    hom, ext = hom_dim(b, a), ext_dim(basis, b, a)
    assert (hom, ext) == (20, 1)
    # pd B_5 <= 1, so Hom - Ext is the Euler form
    assert hom - ext == lattice.bilinear(b.dims, a.dims) == 19

def test_module_slopes(spec, lattice):
    assert str(module_slope(lattice, make_representation(spec, H0, {}))) == "0"
    assert module_slope(lattice, make_representation(spec, HINF, {})).is_infinite
    # c*(h0 + gamma*hinf) has slope gamma
    gamma = Fraction(3, 2)
    dims = tuple(2 * a + 3 * b for a, b in zip(H0, HINF))  # 2*(h0 + (3/2) hinf)
    assert module_slope(lattice, make_representation(spec, dims, {})).as_fraction() == gamma


def test_hom_projective_simple_delta(spec, basis):
    for i in range(6):
        p = projective(basis, i)
        for j in range(6):
            assert hom_dim(p, simple(spec, j)) == (1 if i == j else 0)


def test_spec_mismatch_rejected(spec, basis):
    from tubelat.algebra import build_c4

    other = build_c4(3)
    with pytest.raises(TypeMismatchError):
        hom_dim(simple(spec, 0), simple(other, 0))


def test_rep_json_round_trip(spec, basis):
    rng = random.Random(29)
    m = random_representation(basis, rng)
    data = rep_to_json(m)
    back = rep_from_json(spec, data)
    assert back.dims == m.dims
    assert back.maps == m.maps
