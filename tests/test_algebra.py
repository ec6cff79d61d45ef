import random
from fractions import Fraction

import pytest

from tubelat import algebra
from tubelat.algebra import (
    AlgebraSpec,
    Arrow,
    build_c4,
    c4_reference_quadratic,
    derive_path_basis,
    euler_data,
    spec_from_json,
    spec_to_json,
    validate_spec,
)
from tubelat.errors import (
    ConsistencyError,
    InfiniteDimensionError,
    NonConfluentRewriteError,
    ParameterDomainError,
)

H0 = (1, 1, 2, 1, 1, 0)
HINF = (0, 0, 1, 1, 1, 1)


def test_build_c4_shape(spec):
    assert spec.vertex_count == 6
    assert len(spec.arrows) == 6
    assert len(spec.relations) == 2


@pytest.mark.parametrize("lam", [0, 1, Fraction(0), Fraction(1)])
def test_build_c4_rejects_degenerate_lambda(lam):
    with pytest.raises(ParameterDomainError):
        build_c4(lam)


def test_build_c4_negative_lambda_matches_reference_form():
    spec = build_c4(-1)
    ed = euler_data(spec, derive_path_basis(spec))
    # agreement on all units and pairwise sums pins a quadratic form entirely
    units = [tuple(1 if j == i else 0 for j in range(6)) for i in range(6)]
    vectors = list(units)
    for i in range(6):
        for j in range(6):
            vectors.append(tuple(a + b for a, b in zip(units[i], units[j])))
    for x in vectors:
        assert Fraction(ed.quadratic(x)) == c4_reference_quadratic(x)


def test_path_basis_dimension_twenty(spec, basis):
    assert basis.total_dimension == 20
    ed = euler_data(spec, basis)
    assert sum(sum(row) for row in ed.cartan) == basis.total_dimension
    # column i sums to the dimension of the projective at vertex i
    for i in range(6):
        col_sum = sum(ed.cartan[u][i] for u in range(6))
        assert col_sum == len(basis.paths_from(i))


def test_path_basis_trivial_algebra():
    trivial = AlgebraSpec("point", 1, (), (), Fraction(2))
    b = derive_path_basis(trivial)
    assert b.total_dimension == 1
    assert b.paths_between(0, 0) == ((),)


def test_path_basis_loop_reports_infinite_dimension():
    loop = AlgebraSpec("loop", 1, (Arrow("x", 0, 0),), (), Fraction(2))
    with pytest.raises(InfiniteDimensionError):
        derive_path_basis(loop)


def test_non_confluent_overlap_is_named():
    one = Fraction(1)
    spec = AlgebraSpec(
        "bad",
        4,
        (Arrow("a", 0, 1), Arrow("b", 1, 2), Arrow("c", 2, 3), Arrow("d", 0, 2)),
        (
            ((one, ("a", "b")), (-one, ("d",))),
            ((one, ("b", "c")),),
        ),
        Fraction(2),
    )
    with pytest.raises(NonConfluentRewriteError) as info:
        derive_path_basis(spec)
    assert info.value.word == ("a", "b", "c")


def test_kronecker_algebra_euler_data():
    one = Fraction(1)
    kron = AlgebraSpec(
        "kronecker", 2, (Arrow("a", 0, 1), Arrow("b", 0, 1)), (), Fraction(2)
    )
    b = derive_path_basis(kron)
    assert b.total_dimension == 4
    ed = euler_data(kron, b)
    assert ed.euler == ((1, -2), (0, 1))
    # its radical has rank 1, so the two-generator normalisation is rejected
    from tubelat.errors import UnsupportedFormError
    from tubelat.lattice import radical_basis

    with pytest.raises(UnsupportedFormError):
        radical_basis(ed)


def test_a3_with_zero_composite():
    one = Fraction(1)
    a3 = AlgebraSpec(
        "a3",
        3,
        (Arrow("a", 0, 1), Arrow("b", 1, 2)),
        (((one, ("a", "b")),),),
        Fraction(2),
    )
    b = derive_path_basis(a3)
    assert b.total_dimension == 5
    assert b.paths_between(0, 2) == ()
    ed = euler_data(a3, b)
    assert ed.euler == ((1, -1, 1), (0, 1, -1), (0, 0, 1))


def test_euler_pairings(spec, lattice):
    assert lattice.bilinear(H0, HINF) == 2
    assert lattice.bilinear(HINF, H0) == -2
    zero = (0,) * 6
    rng = random.Random(1)
    for _ in range(20):
        x = tuple(rng.randint(-9, 9) for _ in range(6))
        assert lattice.bilinear(x, zero) == 0


def test_rewriting_kills_exactly_the_leading_branch(basis):
    # the two length-3 normal forms are the a21.a22 composites
    assert basis.paths_between(5, 0) == (("a21", "a22", "beta"),)
    assert basis.paths_between(5, 1) == (("a21", "a22", "gamma"),)
    reduced = basis.reduce(("a11", "a12", "gamma"))
    assert reduced == {("a21", "a22", "gamma"): Fraction(2)}


def test_validate_spec_passes_builtin(spec):
    report = validate_spec(spec)
    assert report.ok
    names = [c.name for c in report.checks]
    assert "quadratic-form-match" in names
    assert "slope-formula-match" in names


def test_validate_spec_detects_every_extra_monomial(spec, monkeypatch):
    # The 21 polarisation vectors must catch a change in any of the 21
    # coefficients of the printed form, so the check is a proof.
    original = c4_reference_quadratic
    for i in range(6):
        for j in range(i, 6):
            monkeypatch.setattr(
                algebra, "c4_reference_quadratic", lambda x: original(x) + x[i] * x[j]
            )
            assert validate_spec(spec).failures() == ["quadratic-form-match"], (i, j)


def test_validate_spec_detects_every_slope_perturbation(spec, monkeypatch):
    original = algebra.c4_reference_slope_pair
    for k in range(6):
        for part in (0, 1):  # numerator, then denominator

            def perturbed(x):
                pair = list(original(x))
                pair[part] += x[k]
                return tuple(pair)

            monkeypatch.setattr(algebra, "c4_reference_slope_pair", perturbed)
            assert validate_spec(spec).failures() == ["slope-formula-match"], (k, part)


def test_validate_spec_fails_on_dropped_relation(spec):
    # one relation alone still gives a consistent algebra (dimension 21),
    # but its form is no longer degenerate: the radical check names it
    tampered = AlgebraSpec(
        spec.name, spec.vertex_count, spec.arrows, spec.relations[:1], spec.lam
    )
    report = validate_spec(tampered)
    assert not report.ok
    assert "radical-basis" in report.failures()


def test_validate_spec_fails_on_retargeted_arrow(spec):
    arrows = tuple(
        Arrow(a.label, a.src, 1 if a.label == "beta" else a.tgt) for a in spec.arrows
    )
    tampered = AlgebraSpec(spec.name, spec.vertex_count, arrows, spec.relations, spec.lam)
    report = validate_spec(tampered)
    assert not report.ok


def test_euler_route_disagreement_raises(spec):
    tampered = AlgebraSpec(
        spec.name,
        spec.vertex_count,
        spec.arrows,
        spec.relations + spec.relations[:1],
        spec.lam,
    )
    with pytest.raises(ConsistencyError):
        euler_data(tampered, derive_path_basis(tampered))


def test_spec_json_round_trip(spec):
    data = spec_to_json(spec)
    back = spec_from_json(data)
    assert back == spec
    assert data["lambda"] == "2"
    # lambda-bearing coefficients survive symbolically
    lam5 = build_c4(Fraction(5, 3))
    data5 = spec_to_json(lam5)
    coeffs = [t["coeff"] for rel in data5["relations"] for t in rel]
    assert "-lambda" in coeffs
    assert spec_from_json(data5) == lam5
