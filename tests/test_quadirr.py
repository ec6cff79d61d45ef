from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.errors import ParameterDomainError, SpecFormatError
from tubelat.quadirr import (
    MAX_RADICAND,
    QuadIrrational,
    parse_quad_irrational,
    squarefree_part,
)


def test_parse_forms():
    assert parse_quad_irrational("sqrt:2") == QuadIrrational(0, 1, 2, 1)
    assert parse_quad_irrational("sqrt(3)") == QuadIrrational(0, 1, 3, 1)
    assert parse_quad_irrational("sqrt(7)/2") == QuadIrrational(0, 1, 7, 2)
    assert parse_quad_irrational("(1+1*sqrt(5))/2") == QuadIrrational(1, 1, 5, 2)
    assert parse_quad_irrational("(1+sqrt(5))/2") == QuadIrrational(1, 1, 5, 2)
    assert parse_quad_irrational("(0-3*sqrt(2))/4") == QuadIrrational(0, -3, 2, 4)
    with pytest.raises(SpecFormatError):
        parse_quad_irrational("3/4")


def test_normalisation():
    assert squarefree_part(12) == (2, 3)
    assert QuadIrrational(0, 1, 12, 2) == QuadIrrational(0, 1, 3, 1)
    assert QuadIrrational(2, 2, 2, 4) == QuadIrrational(1, 1, 2, 2)
    assert QuadIrrational(1, 1, 2, -1) == QuadIrrational(-1, -1, 2, 1)


def test_huge_radicand_is_rejected():
    assert squarefree_part(MAX_RADICAND) == (10**6, 1)
    with pytest.raises(ParameterDomainError):
        squarefree_part(MAX_RADICAND + 1)
    with pytest.raises(ParameterDomainError):
        parse_quad_irrational("sqrt:1000000000000000000000000000057")


def test_rationality_is_rejected():
    with pytest.raises(ParameterDomainError):
        QuadIrrational(1, 0, 2, 1)  # q = 0
    with pytest.raises(ParameterDomainError):
        QuadIrrational(0, 1, 4, 1)  # sqrt(4) = 2
    with pytest.raises(ParameterDomainError):
        QuadIrrational(0, 1, 2, 0)


def _reference_cmp(r: QuadIrrational, t: Fraction) -> int:
    """Interval refinement: shrink a rational enclosure of r until t falls
    outside; the surviving side is the verdict."""
    scale = 2
    while True:
        lo, hi = r.bracket(scale)
        if t < lo:
            return 1
        if t > hi:
            return -1
        scale *= 4


quad = st.builds(
    QuadIrrational,
    p=st.integers(-50, 50),
    q=st.integers(-9, 9).filter(lambda q: q != 0),
    d=st.sampled_from([2, 3, 5, 6, 7, 10, 11, 13]),
    s=st.integers(1, 12),
)
probe = st.fractions(min_value=-100, max_value=100, max_denominator=1000)


@given(r=quad, t=probe)
@settings(max_examples=2500, deadline=None)
def test_comparison_matches_interval_refinement(r, t):
    assert r.cmp_fraction(t) == _reference_cmp(r, t)


def test_comparison_probes_bulk():
    # 10^4 seeded probes: the integer-only verdict never deviates from the
    # interval-refinement reference
    import random

    rng = random.Random(2024)
    radicands = [2, 3, 5, 6, 7, 10, 11, 13, 15, 17]
    for _ in range(10_000):
        r = QuadIrrational(
            rng.randint(-40, 40),
            rng.choice([x for x in range(-8, 9) if x]),
            rng.choice(radicands),
            rng.randint(1, 10),
        )
        t = Fraction(rng.randint(-2000, 2000), rng.randint(1, 400))
        assert r.cmp_fraction(t) == _reference_cmp(r, t)


def _check_floor_mul(r: QuadIrrational, n: int) -> None:
    """floor_mul(n) = f means f < n*r < f + 1 (n*r = 0 for n = 0)."""
    f = r.floor_mul(n)
    if n == 0:
        assert f == 0
        return
    lo, hi = sorted((Fraction(f, n), Fraction(f + 1, n)))
    assert _reference_cmp(r, lo) == 1 and _reference_cmp(r, hi) == -1


@pytest.mark.parametrize(
    "r",
    [
        QuadIrrational(0, 1, 2, 1),
        QuadIrrational(-7, 3, 5, 4),  # negative p, s > 1
        QuadIrrational(3, -2, 7, 5),  # negative q, s > 1
        QuadIrrational(-40, -9, 13, 3),  # negative p and q: r < 0
    ],
    ids=str,
)
def test_floor_mul_every_small_multiple(r):
    for n in range(-30, 31):
        _check_floor_mul(r, n)


@given(r=quad, n=st.integers(-30, 30))
@settings(max_examples=1000, deadline=None)
def test_floor_mul_matches_interval_refinement(r, n):
    _check_floor_mul(r, n)


@given(r=quad)
@settings(max_examples=300, deadline=None)
def test_rational_neighbours(r):
    gap = Fraction(1, 997)
    below, above = r.bracket_until(lambda lo, hi: hi - lo < gap)
    assert r > below and r < above
    assert r < below + gap and r > above - gap


@given(r=quad, t=probe)
@settings(max_examples=500, deadline=None)
def test_distance_lower_bound(r, t):
    lb = r.distance_lower_bound(t)
    assert lb > 0
    # lb certifies |r - t| > lb: the shifted value stays on the same side
    if r > t:
        assert r > t + lb
    else:
        assert r < t - lb


def _exceeds(r: QuadIrrational, c: Fraction) -> bool:
    """r > c, by the sign of s*(r - c) = (p - c*s) + q*sqrt(d), squaring when
    the two terms differ in sign; integer arithmetic, no ``floor_mul``."""
    x, y = (r.p * c.denominator - c.numerator * r.s), r.q * c.denominator
    if x >= 0 and y > 0:
        return True
    if x <= 0 and y < 0:
        return False
    return (y * y * r.d > x * x) == (y > 0)


@given(
    r=quad,
    scale=st.sampled_from([1, 2, 1 << 10, 1 << 30]),
    offset=st.fractions(min_value=0, max_value=3, max_denominator=50),
    side=st.sampled_from([-1, 1]),
)
@settings(max_examples=800, deadline=None)
def test_distance_lower_bound_range(r, scale, offset, side):
    """d/2 <= distance_lower_bound(t) < d for d = |r - t|, t on either side
    of r and near it; callers (``delta_for``) rely on both ends."""
    lo, hi = r.bracket(scale)
    t = lo - offset if side < 0 else hi + offset
    lb = r.distance_lower_bound(t)
    # with sigma the side of r seen from t, d = sigma*(r - t)
    sigma = 1 if _exceeds(r, t) else -1
    assert sigma == -side
    assert _exceeds(r, t + sigma * lb) == (sigma > 0)  # lb < d
    assert _exceeds(r, t + 2 * sigma * lb) == (sigma < 0)  # 2*lb >= d, never =


def test_signed_arithmetic():
    r = parse_quad_irrational("sqrt:2")
    assert r > Fraction(7, 5) and r < Fraction(3, 2)
    golden = parse_quad_irrational("(1+sqrt(5))/2")
    assert golden > Fraction(8, 5) and golden < Fraction(13, 8)
    neg = QuadIrrational(0, -1, 2, 1)
    assert neg < Fraction(-7, 5) and neg > Fraction(-3, 2)
    assert str(r) == "(0+1*sqrt(2))/1"
    assert parse_quad_irrational(str(golden)) == golden
