import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.errors import ConsistencyError, PreconditionError, UndefinedSlopeError
from tubelat.lattice import (
    K0Lattice,
    Slope,
    mu,
    reduced_ratio,
    slope_text,
    vec_add,
    vec_scale,
)

from conftest import unit

H0 = (1, 1, 2, 1, 1, 0)
HINF = (0, 0, 1, 1, 1, 1)

coords = st.tuples(*[st.integers(-30, 30) for _ in range(6)])


def test_quadratic_examples(lattice):
    assert lattice.quadratic(H0) == 0
    assert lattice.quadratic(HINF) == 0
    assert lattice.quadratic(unit(6, 0)) == 1


def test_slope_examples(lattice):
    assert str(lattice.slope(H0)) == "0"
    assert lattice.slope(HINF).is_infinite
    x = vec_add(vec_scale(5, H0), vec_scale(7, HINF))
    assert lattice.slope(x) == Slope(7, 5)
    with pytest.raises(UndefinedSlopeError):
        lattice.slope((0,) * 6)


def test_mu_examples(lattice):
    assert lattice.mu(H0) == 6
    assert lattice.mu(HINF) == 4
    assert lattice.mu((0,) * 6) == 0
    assert mu((1, -1, 2)) == 2


def test_radical_decompose_examples(lattice):
    assert lattice.radical_decompose(H0) == (1, 0)
    x = vec_add(vec_scale(3, H0), vec_scale(2, HINF))
    assert lattice.radical_decompose(x) == (3, 2)
    y = vec_add(vec_scale(5, H0), vec_scale(7, HINF))
    assert (y[4] - y[5], y[5]) == (5, 7)
    assert lattice.radical_decompose(y) == (5, 7)
    with pytest.raises(PreconditionError):
        lattice.radical_decompose(unit(6, 0))


def test_radical_decompose_rejects_vectors_outside_span(lattice):
    # a doctored lattice whose stored hinf is twice the real one cannot
    # re-assemble radical vectors from their tail coordinates
    doctored = K0Lattice(
        euler=lattice.euler,
        h0=lattice.h0,
        hinf=tuple(2 * c for c in lattice.hinf),
        pairing=2 * lattice.pairing,
    )
    with pytest.raises(ConsistencyError):
        doctored.radical_decompose(HINF)


@given(x=coords, y=coords, z=coords)
@settings(max_examples=200, deadline=None)
def test_bilinearity(lattice_, x, y, z):
    lat = lattice_
    assert lat.bilinear(vec_add(x, z), y) == lat.bilinear(x, y) + lat.bilinear(z, y)
    assert lat.bilinear(x, vec_add(y, z)) == lat.bilinear(x, y) + lat.bilinear(x, z)


@given(x=coords)
@settings(max_examples=200, deadline=None)
def test_quadratic_symmetry_and_radical_invariance(lattice_, x):
    lat = lattice_
    assert lat.quadratic(tuple(-c for c in x)) == lat.quadratic(x)
    for h in (H0, HINF):
        assert lat.quadratic(vec_add(x, h)) == lat.quadratic(x)
        assert lat.quadratic(tuple(a - b for a, b in zip(x, h))) == lat.quadratic(x)


def test_slope_of_radical_grid(lattice):
    for a in range(1, 51):
        for b in range(1, 51):
            s = lattice.slope(lattice.radical_combination(a, b))
            assert s.as_fraction() == Fraction(b, a)


def test_mediant_property(lattice):
    rng = random.Random(99)
    for _ in range(300):
        a1, b1 = rng.randint(0, 20), rng.randint(0, 20)
        a2, b2 = rng.randint(0, 20), rng.randint(0, 20)
        if (a1, b1) == (0, 0) or (a2, b2) == (0, 0):
            continue
        x = lattice.radical_combination(a1, b1)
        y = lattice.radical_combination(a2, b2)
        sx, sy = lattice.slope(x), lattice.slope(y)
        if not sx < sy:
            x, y, sx, sy = y, x, sy, sx
        if sx == sy:
            continue
        sm = lattice.slope(vec_add(x, y))
        assert sx < sm < sy


def test_slope_limit_is_monotone_and_converges(lattice):
    rng = random.Random(100)
    eps = Fraction(1, 1000)
    for _ in range(50):
        a1, b1 = rng.randint(0, 10), rng.randint(0, 10)
        a2, b2 = rng.randint(1, 10), rng.randint(0, 10)
        if (a1, b1) == (0, 0) or b2 == 0:
            continue
        target = Fraction(b2, a2)
        prev = None
        for n in range(1, 60):
            s = Fraction(b1 + n * b2, a1 + n * a2)
            gap = abs(s - target)
            if prev is not None:
                assert gap <= prev
            prev = gap
        # entry into the eps-window at an explicitly computed horizon
        big = abs(b1 * a2 - a1 * b2) * 1000 // (a2 * a2) + 1
        s = Fraction(b1 + big * b2, a1 + big * a2)
        assert abs(s - target) < eps


def test_slope_parse_and_str():
    assert str(Slope.from_ratio(14, 10)) == "7/5"
    assert str(Slope.from_ratio(0, 3)) == "0"
    assert str(Slope.from_ratio(2, 0)) == "inf"
    assert Slope.parse("7/5") == Slope(7, 5)
    assert Slope.parse("inf").is_infinite
    assert Slope(1, 0) > Slope(1000, 1)


def test_slope_text_matches_slope_on_a_grid():
    for a in range(-30, 31):
        for b in range(-30, 31):
            if a == b == 0:
                continue
            text = slope_text(b, a)
            assert text == str(Slope.from_ratio(b, a)), (a, b)
            assert text == ("inf" if a == 0 else str(Fraction(b, a))), (a, b)
            assert Slope.parse(text) == Slope.from_ratio(b, a), (a, b)
    with pytest.raises(UndefinedSlopeError):
        slope_text(0, 0)


def ref_slope_text(num: int, den: int) -> str:
    """``slope_text`` as it was before its den > 0 path, kept as the
    reference: every call reduced through ``reduced_ratio``."""
    n, d = reduced_ratio(num, den)
    if d == 0:
        return "inf"
    if d == 1:
        return str(n)
    return f"{n}/{d}"


def _text_or_error(text, num, den):
    try:
        return text(num, den)
    except UndefinedSlopeError as exc:
        return ("error", str(exc))


def test_slope_text_matches_the_reference_on_a_grid():
    for num in range(-40, 41):
        for den in range(-40, 41):
            expected = _text_or_error(ref_slope_text, num, den)
            assert _text_or_error(slope_text, num, den) == expected, (num, den)


BIG = 10**40
big_ints = st.one_of(
    st.integers(-BIG, BIG),
    st.sampled_from([BIG, -BIG, BIG - 1, 1 - BIG, 0, 1, -1]),
)


@given(num=big_ints, den=big_ints, g=st.sampled_from([1, 2, 3, 10**20, BIG]))
@settings(max_examples=500, deadline=None)
def test_slope_text_matches_the_reference_on_large_integers(num, den, g):
    # a common factor g makes the gcd do real work
    for n, d in ((num, den), (num * g, den * g)):
        assert _text_or_error(slope_text, n, d) == _text_or_error(ref_slope_text, n, d)


# hypothesis needs a plain-function fixture indirection for session fixtures
@pytest.fixture(scope="session")
def lattice_(lattice):
    return lattice
