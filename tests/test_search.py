import io
import json
import random
import re
import signal
import sys
import tracemalloc
from contextlib import ExitStack
from functools import lru_cache
from fractions import Fraction
from itertools import islice
from math import ceil, floor, gcd
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from tubelat import cli, search, serialize
from tubelat.algebra import build_c4
from tubelat.errors import BudgetExhaustedError, PreconditionError, SpecFormatError
from tubelat.exceptional import ExceptionalSet, enumerate_exceptional
from tubelat.lattice import K0Lattice, Slope, reduced_ratio, slope_text, vec_add
from tubelat.quadirr import QuadIrrational, parse_quad_irrational
from tubelat.search import (
    BudgetScan,
    DeltaResult,
    ExceptionRecord,
    GapCertificate,
    _check_strip_args,
    _check_window,
    _could_set_delta,
    _in_window_below,
    _strip_ends,
    certificate_from_canonical_text,
    delta_for,
    gap_certificate_from_json,
    gap_certificate_to_json,
    gap_vector,
    max_hinf_pairing,
    p_bound,
    perturbed_params,
    quasisimple_bounds,
    strip_pairs_above,
    strip_pairs_below,
    tube_parameters,
    tube_params_from_json,
    tube_params_to_json,
    validate_gap_certificate,
    validate_tube_params,
)
from tubelat.serialize import dumps_canonical, parse_int

from test_lattice import ref_slope_text
from test_value import replaced

SQRT2 = QuadIrrational(0, 1, 2, 1)
GOLDEN_OUT = Path(__file__).resolve().parent / "golden" / "expected"


def perturbed_slope(a: int, b: int, params) -> Fraction | None:
    """The perturbed slope as a rational, or None when its denominator is 0."""
    den = a + params.gamma2
    if den == 0:
        return None
    return (b + params.gamma1) / den


# ---------------------------------------------------------------------------
# Fraction references: the strip enumerators and delta_for as they were
# before the integer rewrite, kept to pin every output to them (only the
# bracketing of r now takes one ``bracket_until`` call)
# ---------------------------------------------------------------------------


def _a_ceiling(main_bound: Fraction, g2: Fraction) -> int:
    """Largest a that any branch of the case analysis can reach."""
    top = 0
    if main_bound >= 1:
        top = floor(main_bound)
    if g2 < 0:
        top = max(top, ceil(-g2))
    return top


def ref_strip_pairs_below(r1, r2, gamma1, gamma2) -> list[tuple[int, int]]:
    r1, r2 = _check_strip_args(r1, r2)
    g1, g2 = Fraction(gamma1), Fraction(gamma2)
    a_max = _a_ceiling((g1 - r2 * g2) / (r2 - r1), g2)
    out: list[tuple[int, int]] = []
    for a in range(1, a_max + 1):
        hi = floor(r1 * a)
        if hi < 0:
            continue
        den = a + g2
        if den > 0:
            lo = max(0, ceil(r2 * den - g1))
        elif den == 0:
            lo = max(0, floor(-g1) + 1)  # ratio is +infinity iff b + g1 > 0
        else:
            # ratio >= r2 > 0 with negative denominator forces b + g1 <= r2*den
            hi = min(hi, floor(r2 * den - g1))
            lo = 0
        out.extend((a, b) for b in range(lo, hi + 1))
    return out


def ref_strip_pairs_above(r1, r2, gamma1, gamma2) -> list[tuple[int, int]]:
    r1, r2 = _check_strip_args(r1, r2)
    g1, g2 = Fraction(gamma1), Fraction(gamma2)
    a_max = _a_ceiling((r1 * g2 - g1) / (r2 - r1), g2)
    out: list[tuple[int, int]] = []
    for a in range(1, a_max + 1):
        lo = max(0, ceil(r2 * a))
        den = a + g2
        if den > 0:
            lo = max(lo, floor(-g1) + 1)  # positivity: b + g1 > 0
            hi = floor(r1 * den - g1)
        elif den == 0:
            continue  # ratio is infinite or undefined, never in (0, r1]
        else:
            lo = max(lo, ceil(r1 * den - g1))
            hi = ceil(-g1) - 1  # positivity: b + g1 < 0
        out.extend((a, b) for b in range(lo, hi + 1))
    return out


def ref_delta_for(lattice, exceptional, r, eps) -> DeltaResult:
    eps = _check_window(r, eps)
    eps_prime = eps / 2
    g = eps / 8
    below, above = r.bracket_until(lambda lo, hi: hi - lo < g)
    u1 = above + eps_prime  # in (r + eps', r + eps' + g)
    u2 = above + eps_prime + 2 * g  # in (r + eps' + 2g, r + eps' + 3g)
    t1 = below - (eps - g)  # in (r - eps, r - eps + g)
    t2 = below - eps_prime - 2 * g  # in (r - eps' - 3g, r - eps' - 2g)

    # the two strip enumerators list each (a, b) once and never share one
    # (b/a >= u2 > r above, b/a <= t1 < r below), so no key repeats
    exceptions: list[ExceptionRecord] = []
    for y in exceptional:
        params = perturbed_params(lattice, y)
        candidates = ref_strip_pairs_above(u1, u2, params.gamma1, params.gamma2)
        candidates += ref_strip_pairs_below(t1, t2, params.gamma1, params.gamma2)
        for a, b in candidates:
            rho = perturbed_slope(a, b, params)
            if rho is None:
                continue
            if not (r > rho - eps_prime and r < rho + eps_prime):
                continue  # perturbed slope outside (r - eps', r + eps')
            s = Fraction(b, a)
            if r > s - eps and r < s + eps:
                continue  # raw slope already inside the eps window
            exceptions.append(ExceptionRecord(a=a, b=b, y=params.y, perturbed=rho))

    exceptions.sort(key=lambda e: (e.a, e.b, e.y))
    delta = eps_prime
    for rec in exceptions:
        delta = min(delta, r.distance_lower_bound(rec.perturbed) / 2)
    return DeltaResult(delta=delta, eps_prime=eps_prime, exceptions=tuple(exceptions))


# ---------------------------------------------------------------------------
# Strip enumerators
# ---------------------------------------------------------------------------


offset = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=12),
)


@st.composite
def strip_args(draw):
    """0 < r1 < r2 with fractional ends, and offsets that may be integers,
    fractions or negative (so a + gamma2 can be 0 or below 0)."""
    r1 = draw(st.fractions(min_value=Fraction(1, 12), max_value=4, max_denominator=30))
    gap = draw(st.fractions(min_value=Fraction(1, 30), max_value=2, max_denominator=30))
    return r1, r1 + gap, draw(offset), draw(offset)


@given(args=strip_args())
@settings(max_examples=600, deadline=None)
def test_strips_match_fraction_reference(args):
    assert strip_pairs_below(*args) == ref_strip_pairs_below(*args)
    assert strip_pairs_above(*args) == ref_strip_pairs_above(*args)


@pytest.mark.parametrize(
    "g1,g2",
    [(0, -3), (Fraction(-5, 2), -3), (2, Fraction(-7, 2)), (Fraction(7, 3), Fraction(-8, 3))],
)
def test_strips_nonpositive_denominator_branches(g1, g2):
    """gamma2 <= -1 puts a + gamma2 at 0 or below for the first columns."""
    for r1, r2 in [(Fraction(1, 3), Fraction(1, 2)), (Fraction(13, 10), Fraction(7, 5))]:
        assert strip_pairs_below(r1, r2, g1, g2) == ref_strip_pairs_below(r1, r2, g1, g2)
        assert strip_pairs_above(r1, r2, g1, g2) == ref_strip_pairs_above(r1, r2, g1, g2)
    r1, r2 = Fraction(1, 3), Fraction(1, 2)
    # pairs with a + gamma2 < 0 and a + gamma2 = 0 are really emitted
    assert strip_pairs_below(r1, r2, -3, -3) == [(1, 0), (2, 0)]
    assert (3, 0) in strip_pairs_below(r1, r2, 3, -3)
    assert (1, 2) in strip_pairs_above(r1, r2, Fraction(-5, 2), -3)




def test_strips_empty_without_offsets():
    assert strip_pairs_below(Fraction(13, 10), Fraction(7, 5), 0, 0) == []
    assert strip_pairs_above(Fraction(13, 10), Fraction(7, 5), 0, 0) == []


def test_strip_below_example():
    pairs = strip_pairs_below(Fraction(13, 10), Fraction(7, 5), 2, 0)
    # oracle: direct scan far beyond the derived completeness bound a <= 20
    oracle = [
        (a, b)
        for a in range(1, 201)
        for b in range(0, 13 * a // 10 + 1)
        if 10 * b <= 13 * a and 5 * (b + 2) >= 7 * a
    ]
    assert pairs == oracle
    assert len(pairs) == 22
    assert max(a for a, _ in pairs) == 20


def test_strip_above_example():
    pairs = strip_pairs_above(Fraction(7, 5), Fraction(3, 2), -2, 0)
    oracle = [
        (a, b)
        for a in range(1, 201)
        for b in range(0, 2 * a + 3)
        if 2 * b >= 3 * a and b > 2 and 5 * (b - 2) <= 7 * a
    ]
    assert pairs == oracle
    assert pairs and max(a for a, _ in pairs) <= 20


@pytest.mark.parametrize("g1,g2", [(2, 0), (Fraction(3, 2), -1), (-1, Fraction(1, 2)), (0, -2)])
def test_strip_enlarged_scan_stability(g1, g2):
    r1, r2 = Fraction(13, 10), Fraction(7, 5)
    below = set(strip_pairs_below(r1, r2, g1, g2))
    above = set(strip_pairs_above(r1, r2, g1, g2))
    seen_below, seen_above = set(), set()
    for a in range(1, 400):
        for b in range(0, ceil(r2 * a) + 8):
            den = a + Fraction(g2)
            num = b + Fraction(g1)
            if den > 0:
                ge_r2 = num >= r2 * den
                in_01 = 0 < num <= r1 * den
            elif den == 0:
                ge_r2 = num > 0
                in_01 = False
            else:
                ge_r2 = num <= r2 * den
                in_01 = num < 0 and num >= r1 * den
            if Fraction(b, a) <= r1 and ge_r2:
                assert (a, b) in below
                seen_below.add((a, b))
            if Fraction(b, a) >= r2 and in_01:
                assert (a, b) in above
                seen_above.add((a, b))
    # nothing emitted beyond what the direct predicate scan finds
    assert below == seen_below
    assert above == seen_above


def test_strip_rejects_bad_window():
    with pytest.raises(PreconditionError):
        strip_pairs_below(Fraction(7, 5), Fraction(13, 10), 1, 0)
    with pytest.raises(PreconditionError):
        strip_pairs_above(Fraction(-1, 2), Fraction(1, 2), 1, 0)


# ---------------------------------------------------------------------------
# Perturbed slope identity
# ---------------------------------------------------------------------------


def test_perturbed_slope_identity(lattice, exceptional_set):
    rng = random.Random(15)
    for _ in range(500):
        a, b = rng.randint(0, 25), rng.randint(0, 25)
        y = rng.choice(exceptional_set.elements)
        params = perturbed_params(lattice, y)
        x = vec_add(lattice.radical_combination(a, b), y)
        rho = perturbed_slope(a, b, params)
        num = -lattice.bilinear(lattice.h0, x)
        den = lattice.bilinear(lattice.hinf, x)
        if rho is None:
            assert den == 0
        else:
            assert den != 0 and rho == Fraction(num, den)


# ---------------------------------------------------------------------------
# Delta selection
# ---------------------------------------------------------------------------


def test_delta_vacuous_case(lattice):
    empty = ExceptionalSet(elements=(), bound=0)
    res = delta_for(lattice, empty, SQRT2, Fraction(1, 10))
    assert res.exceptions == ()
    assert res.delta == res.eps_prime == Fraction(1, 20)


def test_delta_basic_contract(lattice, exceptional_set):
    eps = Fraction(1, 10)
    res = delta_for(lattice, exceptional_set, SQRT2, eps)
    assert 0 < res.delta <= res.eps_prime < eps
    again = delta_for(lattice, exceptional_set, SQRT2, eps)
    assert again == res  # deterministic


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 20)])
@pytest.mark.parametrize(
    "r",
    [SQRT2, QuadIrrational(1, 1, 5, 2), QuadIrrational(0, 1, 7, 2)],
    ids=["sqrt2", "golden", "sqrt7/2"],
)
def test_delta_exception_keys_distinct(lattice, exceptional_set, r, eps):
    """delta_for keeps no seen-set: each (a, b, y) must arise only once."""
    res = delta_for(lattice, exceptional_set, r, eps)
    keys = [(e.a, e.b, e.y) for e in res.exceptions]
    assert keys
    assert len(set(keys)) == len(keys)


def test_delta_for_runs_the_raw_floor_mul_once_per_row(lattice, exceptional_set, monkeypatch):
    """At sqrt(2) and eps 1/100, delta_for itself runs ``floor_mul`` 2873
    times: once for each of the 1651 strip rows with a perturbed slope, and
    once more for each of the 1222 rows with a pair near r.  Run once per
    such pair, the raw-slope ``floor_mul`` would add 33 more."""
    calls = []
    floor_mul = QuadIrrational.floor_mul

    def counted(self, n):
        calls.append(sys._getframe(1).f_code is delta_for.__code__)
        return floor_mul(self, n)

    monkeypatch.setattr(QuadIrrational, "floor_mul", counted)
    delta_for(lattice, exceptional_set, SQRT2, Fraction(1, 100))
    assert sum(calls) == 2873


DELTA_CASES = [
    (r, eps)
    for r, epss in [
        ("sqrt:2", ["1/7", "1/10", "1/20", "3/50", "1/100"]),
        ("(1+sqrt(5))/2", ["1/7", "1/10", "1/20", "3/50", "1/100"]),
        ("sqrt(7)/2", ["1/7", "1/10", "1/20", "3/50", "1/100"]),
        ("(3-sqrt(5))/2", ["1/7", "1/10", "1/20", "3/50"]),  # q < 0
        ("(5+sqrt(2))/4", ["1/7", "1/10", "1/20", "3/50"]),  # s > 1
        ("sqrt:101", ["1/7", "1/10", "1/20", "3/50"]),
    ]
    for eps in epss
]


@pytest.mark.parametrize("r,eps", DELTA_CASES, ids=[f"{r},{e}" for r, e in DELTA_CASES])
def test_delta_matches_fraction_reference(lattice, exceptional_set, r, eps):
    r, eps = parse_quad_irrational(r), Fraction(eps)
    got = delta_for(lattice, exceptional_set, r, eps)
    assert got.exceptions
    assert got == ref_delta_for(lattice, exceptional_set, r, eps)


@lru_cache(maxsize=None)
def lattice_and_exceptional(lam: str) -> tuple[K0Lattice, ExceptionalSet]:
    lattice = K0Lattice.for_spec(build_c4(lam))
    return lattice, enumerate_exceptional(lattice)


SQUAREFREE = [d for d in range(2, 31) if all(d % (k * k) for k in range(2, 6))]


@st.composite
def delta_windows(draw):
    """r = (p + q*sqrt(d))/s > 1/40 with small p, q, s, and eps from 1/40 up
    to just below r: the strip ends move toward 0 as eps nears r."""
    r = QuadIrrational(
        draw(st.integers(-3, 3)),
        draw(st.integers(-2, 2).filter(bool)),
        draw(st.sampled_from(SQUAREFREE)),
        draw(st.integers(1, 3)),
    )
    lo, _ = r.bracket(1 << 20)
    assume(Fraction(1, 40) < lo < 4)
    top = Fraction(floor(lo * 1000), 1000)  # within 10^-3 of r, below it
    fractions = st.fractions(Fraction(1, 40), Fraction(floor(top * 60), 60), max_denominator=60)
    return r, draw(st.one_of(st.just(top), fractions) if top >= Fraction(1, 30) else st.just(top))


@given(window=delta_windows(), lam=st.sampled_from(["2", "5/3", "-1", "1/2"]))
@settings(max_examples=40, deadline=None)
def test_delta_matches_the_loose_strip_reference(window, lam):
    """The exact strip ends find the same exceptions as the reference, whose
    strips keep the looser ends, up to eps/4 further toward r."""
    r, eps = window
    lattice, exceptional = lattice_and_exceptional(lam)
    assert delta_for(lattice, exceptional, r, eps) == ref_delta_for(lattice, exceptional, r, eps)


def one_per_offset_class(lattice, exceptional) -> ExceptionalSet:
    """The last y of each class of equal offsets (gamma1, gamma2), so that
    ``delta_for`` shares no class between two y."""
    last = {}
    for y in exceptional:
        params = perturbed_params(lattice, y)
        last[params.gamma1, params.gamma2] = y
    return ExceptionalSet(tuple(last.values()), exceptional.bound)


@given(window=delta_windows(), lam=st.sampled_from(["2", "5/3", "-1", "1/2"]), unshared=st.booleans())
@settings(max_examples=40, deadline=None)
def test_delta_matches_the_reference_on_unshared_and_reversed_sets(window, lam, unshared):
    """One y per offset class, or every y in reverse order: the grouping by
    offsets and the sort by y itself, not by its place in the set."""
    r, eps = window
    lattice, exceptional = lattice_and_exceptional(lam)
    if unshared:
        exceptional = one_per_offset_class(lattice, exceptional)
        assert 0 < len(exceptional) < 24
    else:
        exceptional = ExceptionalSet(exceptional.elements[::-1], exceptional.bound)
        assert len(exceptional) == 24
    assert delta_for(lattice, exceptional, r, eps) == ref_delta_for(lattice, exceptional, r, eps)


@pytest.mark.parametrize(
    "r",
    [SQRT2, QuadIrrational(1, 1, 5, 2), QuadIrrational(0, 1, 7, 2), QuadIrrational(0, 1, 1009, 1), QuadIrrational(1, 1, 2, 40)],
    ids=["sqrt2", "golden", "sqrt7/2", "sqrt1009", "small"],
)
def test_strip_ends_stay_ordered_as_eps_nears_r(r):
    for scale in (1000, 10_000, 1 << 40):
        eps = Fraction(r.floor_mul(scale), scale)  # r - 10^-3 < eps < r
        u1, u2, t1, t2 = _strip_ends(r, eps)
        assert 0 < t1 < t2 < r < u1 < u2
        # each end lies past the condition it stands for
        assert r < t1 + eps and r > t2 + eps / 2 and r < u1 - eps / 2 and r > u2 - eps


def test_delta_soundness_oracle_scan(lattice, exceptional_set):
    """Independent rescan: no pair up to a = 600 breaks the implication, at
    sqrt(2), the golden ratio and sqrt(7)/2.

    Any exception satisfies |perturbed - raw| >= eps/2 while the offsets
    (|g1|, |g2| <= 1 here) only reach
    |perturbed - raw| <= (|g1| + slope*|g2|)/(a - 1) <= 6/(a - 1) for each of
    these r, so every exception has a <= 121; the scan goes well past five
    times the internal strip bounds for this window.
    """
    eps = Fraction(1, 10)
    for r in [SQRT2, QuadIrrational(1, 1, 5, 2), QuadIrrational(0, 1, 7, 2)]:
        delta = delta_for(lattice, exceptional_set, r, eps).delta
        lo, hi = r.bracket(1 << 24)
        for y in exceptional_set:
            params = perturbed_params(lattice, y)
            for a in range(1, 601):
                den = a + params.gamma2
                if den <= 0:
                    b_range = range(0, 6)
                else:
                    b_lo = floor((lo - delta) * den - params.gamma1) - 1
                    b_hi = ceil((hi + delta) * den - params.gamma1) + 1
                    b_range = range(max(0, b_lo), b_hi + 1)
                for b in b_range:
                    rho = perturbed_slope(a, b, params)
                    if rho is None:
                        continue
                    if r > rho - delta and r < rho + delta:
                        s = Fraction(b, a)
                        assert r > s - eps and r < s + eps, (r, a, b, y, rho)


def test_delta_randomized_probes(lattice, exceptional_set):
    eps = Fraction(1, 10)
    res = delta_for(lattice, exceptional_set, SQRT2, eps)
    rng = random.Random(77)
    for _ in range(10_000):
        a = rng.randint(1, 2000)
        b = rng.randint(0, 3 * a)
        y = rng.choice(exceptional_set.elements)
        params = perturbed_params(lattice, y)
        rho = perturbed_slope(a, b, params)
        if rho is None:
            continue
        if SQRT2 > rho - res.delta and SQRT2 < rho + res.delta:
            s = Fraction(b, a)
            assert SQRT2 > s - eps and SQRT2 < s + eps


def surd_sign(alpha: Fraction, beta: Fraction, d: int) -> int:
    """Sign of alpha + beta*sqrt(d) for a non-square d, squaring when alpha
    and beta differ in sign; 0 only when both are 0.  No ``floor_mul``."""
    if alpha == beta == 0:
        return 0
    if alpha >= 0 and beta >= 0:
        return 1
    if alpha <= 0 and beta <= 0:
        return -1
    return 1 if (alpha * alpha > beta * beta * d) == (alpha > 0) else -1


def nearer(r, t1, t2, k=1):
    """|r - t1| < k*|r - t2|, by the sign of k^2 (r - t2)^2 - (r - t1)^2
    written as alpha + beta*sqrt(d) with r = c + e*sqrt(d)."""
    c, e = Fraction(r.p, r.s), Fraction(r.q, r.s)
    sq_c, sq_e = c * c + e * e * r.d, 2 * c * e  # r^2 = sq_c + sq_e*sqrt(d)
    k2, lin = k * k, 2 * (k * k * t2 - t1)
    alpha = (k2 - 1) * sq_c - lin * c + k2 * t2 * t2 - t1 * t1
    beta = (k2 - 1) * sq_e - lin * e
    return surd_sign(alpha, beta, r.d) > 0


def could_set_delta(r, below, above) -> list[Fraction]:
    """``_could_set_delta`` on Fractions, through their (num, den) pairs."""
    pairs = [[t.as_integer_ratio() for t in ts] for ts in (below, above)]
    return [Fraction(*t) for t in _could_set_delta(r, *pairs)]


def check_could_set_delta(r, ts):
    """The filter keeps exactly the t with |r - t| < 2*d_min, and the least
    distance_lower_bound over what it keeps is the least over all of ts."""
    below = [t for t in ts if r_exceeds(r, t.numerator, t.denominator)]
    above = [t for t in ts if not r_exceeds(r, t.numerator, t.denominator)]
    kept = could_set_delta(r, below, above)
    x = next(t for t in ts if not any(nearer(r, u, t) for u in ts))
    assert sorted(kept) == sorted(t for t in ts if nearer(r, t, x, 2))
    least = min(r.distance_lower_bound(t) for t in ts)
    assert min(r.distance_lower_bound(t) for t in kept) == least


def test_could_set_delta_empty():
    assert _could_set_delta(SQRT2, [], []) == []


@pytest.mark.parametrize(
    "near,far",
    [
        (Fraction(24, 17), Fraction(17, 12)),  # far above r, near below it
        (Fraction(41, 29), Fraction(58, 41)),
        (Fraction(79, 56), Fraction(78, 55)),
    ],
)
def test_could_set_delta_farther_slope_with_smaller_bound(near, far):
    """The bound lies only in [d/2, d), so a farther slope can hold the
    least bound; the filter must keep it."""
    r = SQRT2
    assert nearer(r, near, far)
    assert r.distance_lower_bound(far) < r.distance_lower_bound(near)
    ts = [near, far, Fraction(7, 5), Fraction(3, 2), Fraction(99, 70), near]
    check_could_set_delta(r, ts)
    assert far in could_set_delta(r, [near, Fraction(7, 5)], [far, Fraction(3, 2)])


FILTER_RS = [
    SQRT2,
    QuadIrrational(1, 1, 5, 2),
    QuadIrrational(0, 1, 7, 2),
    QuadIrrational(3, -1, 5, 2),  # q < 0
    QuadIrrational(5, 1, 2, 4),  # s > 1
]


@given(
    r=st.sampled_from(FILTER_RS),
    offsets=st.lists(st.tuples(st.integers(1, 300), st.integers(-3, 3)), min_size=1, max_size=40),
)
@settings(max_examples=300, deadline=None)
def test_could_set_delta_on_synthetic_slopes(r, offsets):
    """Rationals n/m next to r on both sides: floor(lo*m) + j over m."""
    lo, _ = r.bracket(1 << 24)
    check_could_set_delta(r, [Fraction(floor(lo * m) + j, m) for m, j in offsets])


def test_delta_rejects_bad_eps(lattice, exceptional_set):
    with pytest.raises(PreconditionError):
        delta_for(lattice, exceptional_set, SQRT2, Fraction(0))
    with pytest.raises(PreconditionError):
        delta_for(lattice, exceptional_set, SQRT2, Fraction(3, 2))


# ---------------------------------------------------------------------------
# Gap vectors
# ---------------------------------------------------------------------------


def r_exceeds(r, b, a):
    """r > b/a for a >= 1, by the sign of r - b/a = (x + y*sqrt(d)) / (s*a),
    squaring when x and y differ in sign; independent of ``floor_mul``."""
    x, y = r.p * a - b * r.s, r.q * a
    if x >= 0 and y > 0:
        return True
    if x <= 0 and y < 0:
        return False
    return (y * y * r.d > x * x) == (y > 0)


def oracle_competitors(lattice, a, b, r, budget):
    """Brute force: all pairs within the budget whose slope is strictly
    between b/a and r, by cross multiplication."""
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    out = []
    for a2 in range(1, budget // w0 + 1):
        for b2 in range(1, (budget - w0 * a2) // w1 + 1):
            if b2 * a > b * a2 and r_exceeds(r, b2, a2):
                out.append((a2, b2))
    return out


def reference_gap_vector(lattice, r, eps, k):
    """(a, b, mu) by the plain search: candidates in (r - eps, r) by
    increasing total dimension, then increasing a, each checked against every
    pair within its budget mu + k."""
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    m = w0 + w1
    while True:
        for a in range(1, (m - w1) // w0 + 1):
            b, rest = divmod(m - w0 * a, w1)
            if rest or b < 1 or not r_exceeds(r, b, a):
                continue
            if r_exceeds(r, b * eps.denominator + eps.numerator * a, a * eps.denominator):
                continue  # r - eps >= b/a
            if not oracle_competitors(lattice, a, b, r, m + k):
                return a, b, m
        m += 1


@pytest.mark.parametrize("eps", [Fraction(1, 10), Fraction(1, 3)], ids=str)
@pytest.mark.parametrize("k", [0, 7, 20, 60])
@pytest.mark.parametrize(
    "r", ["sqrt:2", "(1+sqrt(5))/2", "sqrt(7)/2", "(3-sqrt(5))/2", "(-1+sqrt(3))"]
)
def test_gap_vector_matches_plain_search(lattice, r, k, eps):
    r = parse_quad_irrational(r)
    cert = gap_vector(lattice, r, eps, k)
    assert (cert.a, cert.b, cert.mu) == reference_gap_vector(lattice, r, eps, k)


def ref_in_window_below(r, eps, b, a):
    """b/a in (r - eps, r) by ``Fraction`` comparisons, as the certificate
    checks made it before ``_in_window_below``."""
    s = Fraction(b, a)
    return r > s and r < s + eps


window_rs = st.builds(
    QuadIrrational,
    p=st.integers(-6, 6),
    q=st.integers(-4, 4).filter(bool),
    d=st.sampled_from([2, 3, 5, 7, 101]),
    s=st.integers(1, 6),
)
big = st.sampled_from([10**40, -(10**40)])


@given(
    r=window_rs,
    eps=st.one_of(st.fractions(-2, 4, max_denominator=60), big.map(Fraction)),
    b=st.one_of(st.integers(-300, 300), big),
    a=st.one_of(st.integers(-300, 300), big).filter(bool),
)
@settings(max_examples=1500, deadline=None)
def test_in_window_below_matches_fraction_reference(r, eps, b, a):
    assert _in_window_below(r, eps, b, a) == ref_in_window_below(r, eps, b, a)


def test_in_window_below_is_false_for_a_zero():
    for b in (-1, 0, 1, 10**40):
        assert not _in_window_below(SQRT2, Fraction(10**40), b, 0)


def ref_budget_pairs(w0, w1, budget):
    """All (a, b) in N^2 minus the origin with w0*a + w1*b <= budget, sorted."""
    for a in range(0, budget // w0 + 1):
        for b in range(0 if a else 1, (budget - w0 * a) // w1 + 1):
            yield a, b


def ref_witness_rows(w0, w1, budget):
    """The witness rows as ``gap_vector`` built them before ``BudgetScan``:
    one tuple (a, b, mu, slope text) per pair of the budget scan."""
    return tuple(
        (a2, b2, w0 * a2 + w1 * b2, slope_text(b2, a2))
        for a2, b2 in ref_budget_pairs(w0, w1, budget)
    )


@given(w0=st.integers(1, 7), w1=st.integers(1, 7), budget=st.integers(-3, 90) | st.integers(91, 300))
@example(w0=6, w1=4, budget=300)
@example(w0=3, w1=5, budget=0)
@example(w0=3, w1=5, budget=2)
@example(w0=4, w1=4, budget=3)
@example(w0=2, w1=3, budget=2)
@settings(max_examples=400, deadline=None)
def test_budget_scan_is_the_tuple_of_its_rows(w0, w1, budget):
    """Rows, order, ``len`` and equality in both directions, with budgets
    below min(w0, w1) (no row at all) included."""
    scan, ref = BudgetScan(w0, w1, budget), ref_witness_rows(w0, w1, budget)
    assert tuple(scan) == ref
    assert len(scan) == len(ref)
    assert scan == ref and ref == scan
    assert not scan != ref and not ref != scan
    assert hash(scan) == hash(ref)
    # the scan is every pair but the origin within the budget, sorted
    assert [(a, b) for a, b, _, _ in scan] == sorted(
        (a, b)
        for a in range(max(budget, 0) + 1)
        for b in range(max(budget, 0) + 1)
        if (a or b) and w0 * a + w1 * b <= budget
    )
    if budget < min(w0, w1):
        assert ref == () and len(scan) == 0
    if ref:
        assert scan != ref[:-1] and ref[:-1] != scan
        assert scan != ref + ref[-1:] and ref + ref[-1:] != scan
    # a scan of other weights or budget is equal exactly when its rows are
    for other in (BudgetScan(w0, w1, budget + 1), BudgetScan(w1, w0, budget), BudgetScan(w0, w1, budget)):
        assert (scan == other) == (ref == tuple(other)) == (other == scan)
    assert scan != list(ref) and list(ref) != scan  # a tuple, not a list


def test_budget_scan_is_immutable():
    scan = BudgetScan(3, 5, 20)
    for name in ("w0", "w1", "budget", "other"):
        with pytest.raises(AttributeError):
            setattr(scan, name, 21)
    assert scan == BudgetScan(3, 5, 20) and hash(scan) == hash(BudgetScan(3, 5, 20))
    assert repr(scan) == "BudgetScan(w0=3, w1=5, budget=20)"


def test_gap_vector_and_tube_parameters_build_no_witness_row(
    lattice, exceptional_set, monkeypatch
):
    """Rows come only from iterating or writing the scan: with both broken,
    both searches still answer, and the rows appear once they are read."""
    def no_rows(*args):
        raise AssertionError("a witness row was built")

    monkeypatch.setattr(BudgetScan, "__iter__", no_rows)
    monkeypatch.setattr(serialize, "_scan_blocks", no_rows)
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 500)
    tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), 10)
    assert isinstance(cert.witnesses, BudgetScan) and isinstance(tp.certificate.witnesses, BudgetScan)
    assert len(cert.witnesses) == 14839  # the lengths of its ranges, no row built
    assert gap_certificate_to_json(cert)["budget"] == cert.budget
    monkeypatch.undo()
    w0, w1 = cert.mu_weights
    assert cert.witnesses == ref_witness_rows(w0, w1, cert.budget)
    assert len(ref_witness_rows(w0, w1, cert.budget)) == 14839


def scan_gap_vector(lattice, r, eps, k, max_mu=200_000):
    """``gap_vector`` as it was before the Stern-Brocot walk: for each total
    dimension m, the best slope below r within budget m + k by one pass over
    the columns, accepted when it has dimension m and lies in the window."""
    eps = _check_window(r, eps)
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    floors: list[int] = []  # floors[a] = floor(a*r), the largest b with b/a < r
    for m in range(w0 + w1, max_mu + 1):
        budget = m + k
        while len(floors) <= budget // w0:
            floors.append(r.floor_mul(len(floors)))
        a, b = 1, 0  # the best slope b/a so far
        for a2 in range(1, budget // w0 + 1):
            b2 = min(floors[a2], (budget - w0 * a2) // w1)
            if b2 * a > b * a2:
                a, b = a2, b2
        if w0 * a + w1 * b != m or not _in_window_below(r, eps, b, a):
            continue
        witnesses = ref_witness_rows(w0, w1, budget)
        return GapCertificate(
            r=r,
            epsilon=eps,
            k=k,
            a=a,
            b=b,
            mu=m,
            budget=budget,
            mu_weights=(w0, w1),
            witnesses=witnesses,
        )
    raise BudgetExhaustedError(
        f"no certified gap vector with total dimension <= {max_mu}"
    )


def _certificate_or_message(search, *args):
    try:
        return search(*args)
    except BudgetExhaustedError as exc:
        return str(exc)


@given(
    r=window_rs,
    eps=st.fractions(Fraction(1, 60), Fraction(2), max_denominator=60),
    k=st.integers(0, 60),
    max_mu=st.integers(0, 300),
)
@settings(max_examples=400, deadline=None)
def test_gap_vector_matches_the_scan(lattice, r, eps, k, max_mu):
    """The whole certificate, or the budget error's text, is the scan's."""
    assume(r > eps)
    args = (lattice, r, eps, k, max_mu)
    assert _certificate_or_message(gap_vector, *args) == _certificate_or_message(
        scan_gap_vector, *args
    )


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "r, eps, k",
    [
        (parse_quad_irrational("sqrt:999999999989"), Fraction(1, 10), 1),
        (QuadIrrational(0, 1, 2, 10**100), Fraction(1, 10**101), 1),
        (QuadIrrational(0, 1, 2, 10**100), Fraction(1, 10**101), 10**9),
    ],
    ids=["radicand-near-10**12", "r-near-10**-100", "r-near-10**-100-k-10**9"],
)
def test_gap_vector_budget_exhaustion_within_a_second(lattice, r, eps, k):
    """The walk gives up once the mediant over a lower end outside the
    window weighs more than max_mu: here after about 33 000 steps, where the
    scan did not end, and at k = 10**9 as at k = 1.  The alarm makes a walk
    that runs on a failure."""

    def stop(signum, frame):
        raise TimeoutError("gap_vector ran for more than a second")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        with pytest.raises(BudgetExhaustedError):
            gap_vector(lattice, r, eps, k)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@given(
    r=st.sampled_from(["sqrt:2", "(1+sqrt(5))/2", "sqrt(7)/2", "(3-sqrt(5))/2", "sqrt:101"]),
    eps=st.fractions(Fraction(1, 30), Fraction(1, 3), max_denominator=30),
    k=st.integers(0, 60),
)
@settings(max_examples=100, deadline=None)
def test_gap_vector_pair_is_reduced_at_its_own_dimension(lattice, r, eps, k):
    """Pins the end of the least-mu argument in ``gap_vector``'s docstring:
    the pair is a Stern-Brocot fraction, so it is reduced, and mu is its
    own dimension."""
    cert = gap_vector(lattice, parse_quad_irrational(r), eps, k)
    assert gcd(cert.a, cert.b) == 1
    assert cert.mu == lattice.mu_h0 * cert.a + lattice.mu_hinf * cert.b


def test_gap_vector_sqrt2_frozen(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
    assert (cert.a, cert.b) == (5, 7)
    assert cert.mu == 58
    assert cert.budget == 108
    assert str(cert.slope) == "7/5"
    assert validate_gap_certificate(lattice, cert) == []
    # independent oracle: full scan of all a' <= 18, exact comparisons
    assert cert.budget // lattice.mu_h0 == 18
    assert oracle_competitors(lattice, 5, 7, SQRT2, 108) == []
    # the dimension-minimal pair in the open strip (7/5, sqrt(2)) needs a' = 17
    best = None
    for a2 in range(1, 41):
        for b2 in range(1, 2 * a2 + 1):
            if b2 * 5 > 7 * a2 and SQRT2 > Fraction(b2, a2):
                m = lattice.mu_of_pair(a2, b2)
                if best is None or m < best[2]:
                    best = (a2, b2, m)
    assert best == (17, 24, 198)


def test_gap_vector_k_zero(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 0)
    assert (cert.a, cert.b) == (3, 4)
    assert cert.budget == cert.mu
    assert oracle_competitors(lattice, cert.a, cert.b, SQRT2, cert.budget) == []


def test_gap_vector_gap_must_exceed_k(lattice):
    """4/3 (dimension 34) is the answer up to k = 23.  At k = 24 the pair
    (5, 7), of dimension exactly 34 + 24, lies between 4/3 and sqrt 2."""
    eps = Fraction(1, 10)
    cert = gap_vector(lattice, SQRT2, eps, 23)
    assert (cert.a, cert.b, cert.mu) == (3, 4, 34)
    cert = gap_vector(lattice, SQRT2, eps, 24)
    assert (cert.a, cert.b, cert.mu) == (5, 7, 58)
    assert oracle_competitors(lattice, 3, 4, SQRT2, 34 + 24) == [(5, 7)]


def test_gap_vector_window_is_strict(lattice):
    for k in (0, 10, 50):
        cert = gap_vector(lattice, SQRT2, Fraction(1, 10), k)
        s = Fraction(cert.b, cert.a)
        assert SQRT2 > s
        assert SQRT2 < s + Fraction(1, 10)


def test_gap_vector_monotone_in_k(lattice):
    mus = [gap_vector(lattice, SQRT2, Fraction(1, 10), k).mu for k in (0, 10, 20, 50, 80)]
    assert mus == sorted(mus)


def test_gap_vector_budget_exhaustion_is_loud(lattice):
    with pytest.raises(BudgetExhaustedError):
        gap_vector(lattice, SQRT2, Fraction(1, 10), 50, max_mu=40)


def test_gap_certificate_json_round_trip(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 12)
    data = gap_certificate_to_json(cert)
    assert gap_certificate_from_json(data) == cert


def test_certificate_rejects_witness_mutations(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
    data = gap_certificate_to_json(cert)

    # slope field edited into the forbidden strip
    bad = gap_certificate_from_json(
        {**data, "witnesses": [dict(w) for w in data["witnesses"]]}
    )
    edited = [dict(w) for w in data["witnesses"]]
    edited[10]["slope"] = "17/12"
    bad = gap_certificate_from_json({**data, "witnesses": edited})
    assert validate_gap_certificate(lattice, bad)

    # a witness pair replaced by one inside the strip
    swapped = [dict(w) for w in data["witnesses"]]
    swapped[3] = {"a": 17, "b": 24, "mu": 198, "slope": "24/17"}
    bad = gap_certificate_from_json({**data, "witnesses": swapped})
    assert validate_gap_certificate(lattice, bad)

    # a dropped witness breaks completeness
    bad = gap_certificate_from_json({**data, "witnesses": data["witnesses"][1:]})
    assert validate_gap_certificate(lattice, bad)


def _row_index(data, a, b):
    rows = data["witnesses"]
    return next(i for i, w in enumerate(rows) if (w["a"], w["b"]) == (a, b))


def test_certificate_accepts_other_slope_spellings(lattice):
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
    data = gap_certificate_to_json(cert)
    for (a, b), text in [
        ((5, 7), "14/10"),
        ((5, 7), " 7/5"),
        ((5, 7), "+7/5"),
        ((0, 1), "oo"),
        ((0, 2), "infinity"),
        ((3, 0), "0/4"),
    ]:
        rows = [dict(w) for w in data["witnesses"]]
        rows[_row_index(data, a, b)]["slope"] = text
        read = gap_certificate_from_json({**data, "witnesses": rows})
        assert validate_gap_certificate(lattice, read) == [], text
        assert read == cert, text  # slopes are kept in their reduced text


def test_wrong_slope_message_prints_the_reduced_slope(lattice):
    data = gap_certificate_to_json(gap_vector(lattice, SQRT2, Fraction(1, 10), 50))
    rows = [dict(w) for w in data["witnesses"]]
    rows[_row_index(data, 2, 3)]["slope"] = "10/6"
    rows[_row_index(data, 0, 1)]["slope"] = "2"
    bad = gap_certificate_from_json({**data, "witnesses": rows})
    assert validate_gap_certificate(lattice, bad) == [
        "witness (0,1) has wrong slope 2",
        "witness (2,3) has wrong slope 5/3",
    ]


def test_completeness_check_reads_no_more_than_the_document(lattice):
    # a short witness list that claims a huge budget is rejected without
    # enumerating the claimed budget scan (about 10**17 pairs here)
    data = gap_certificate_to_json(gap_vector(lattice, SQRT2, Fraction(1, 10), 50))
    huge = gap_certificate_from_json(
        {**data, "k": 10**9, "budget": data["mu"] + 10**9}
    )
    assert validate_gap_certificate(lattice, huge) == [
        "witness list is not the full budget scan"
    ]
    # a prefix of the scan, a repeated row and one row past the budget are
    # each incomplete or too long
    rows = data["witnesses"]
    extra = {"a": 0, "b": 200, "mu": 200 * lattice.mu_hinf, "slope": "inf"}
    for edited in (rows[:-1], rows + rows[-1:], rows + [extra]):
        bad = gap_certificate_from_json({**data, "witnesses": edited})
        assert "witness list is not the full budget scan" in validate_gap_certificate(
            lattice, bad
        )


@pytest.mark.parametrize(
    "name",
    sorted(
        p.stem
        for p in GOLDEN_OUT.glob("*.out")
        if p.stem.startswith(("gap-search", "tube-params"))
    ),
)
def test_golden_certificates_round_trip(name):
    text = (GOLDEN_OUT / f"{name}.out").read_text(encoding="utf-8")
    doc = json.loads(text)
    if doc["kind"] == "gap-vector":
        again = gap_certificate_to_json(gap_certificate_from_json(doc))
    else:
        again = tube_params_to_json(tube_params_from_json(doc))
    assert again == doc
    assert dumps_canonical(again) == text


# ---------------------------------------------------------------------------
# Reading witness rows: the per-row expression that parsed every slope,
# kept as the reference for the reader that parses only other spellings
# ---------------------------------------------------------------------------


def ref_witness_from_json(w) -> tuple[int, int, int, str]:
    return (
        parse_int(w["a"]),
        parse_int(w["b"]),
        parse_int(w["mu"]),
        str(Slope.parse(w["slope"])),
    )


GAP_DOC = json.loads((GOLDEN_OUT / "gap-search-sqrt2.out").read_text(encoding="utf-8"))
GAP_CERT = gap_certificate_from_json(GAP_DOC)


@st.composite
def witness_rows(draw):
    a = draw(st.integers(-40, 40))
    b = draw(st.integers(-40, 40))
    a, b = draw(st.sampled_from([(a, b), (0, 0), (0, b), (a, 0)]))
    texts = ["1/0", "0/0", f"{b}/{a}"]
    if a or b:
        t = slope_text(b, a)
        k = draw(st.integers(2, 5))
        texts += [t, f" {t}", f"{t} ", f"\t{t}\n", f"+{t}", f"{b * k}/{a * k}"]
        texts.append(slope_text(b + 1, a) if a else slope_text(1, 1))
    if a == 0:
        texts += ["inf", "oo", "infinity", " oo "]
    slope = draw(
        st.one_of(
            st.sampled_from(texts),
            st.integers(-3, 3),
            st.none(),
            st.lists(st.integers(0, 3), max_size=2),
        )
    )
    return {"a": a, "b": b, "mu": draw(st.integers(-5, 500)), "slope": slope}


def _read_or_message(read, doc):
    try:
        return read(doc)
    except SpecFormatError as exc:
        return str(exc)


def ref_read_one_row(doc):
    """The certificate of ``doc``, whose one witness row is read by the
    reference, or the error the reader gives: the reference's own, or a
    row that lacks a key or is not an object, at the path of the row."""
    row = doc["witnesses"][0]
    try:
        return replaced(GAP_CERT, witnesses=(ref_witness_from_json(row),))
    except SpecFormatError as exc:
        reason = str(exc)
    except (KeyError, TypeError):
        reason = f"not an object with keys a, b, mu and slope: {row!r:.80}"
    return f"gap certificate.witnesses[0]: {reason}"


@given(row=witness_rows())
@settings(max_examples=1500, deadline=None)
def test_witness_reader_matches_slope_parse_reference(row):
    doc = {**GAP_DOC, "witnesses": [row]}
    assert _read_or_message(gap_certificate_from_json, doc) == ref_read_one_row(doc)


def test_golden_certificates_are_read_without_slope_parse(monkeypatch):
    calls = []
    parse = Slope.parse

    def counting_parse(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(Slope, "parse", staticmethod(counting_parse))
    names = sorted(GOLDEN_OUT.glob("gap-search*.out"))
    assert names
    for path in names:
        gap_certificate_from_json(json.loads(path.read_text(encoding="utf-8")))
    assert calls == []
    # the count is live: the respelled rows of the golden input are parsed
    respelled = GOLDEN_OUT.parent / "inputs" / "gap-sqrt2-other-spellings.json"
    gap_certificate_from_json(json.loads(respelled.read_text(encoding="utf-8")))
    assert sorted(calls) == sorted(["oo", "10/6", "0/4", " 4/3", "14/10"])


@pytest.mark.parametrize(
    "row",
    [
        {"a": "x"},
        {"a": 1.0, "b": 2},
        {"a": 1, "b": True},
        {"a": 1, "b": "x", "mu": None},
        {"a": 1, "b": 2, "mu": 2.5},
        {"a": 1, "b": 2, "mu": 3},
        {"b": "x", "mu": "y"},
        {"a": False, "b": 0, "mu": 0, "slope": "0"},
        [1, 2, 3, "2"],
        "row",
    ],
    ids=repr,
)
def test_witness_reader_errors_come_in_field_order(row):
    """The first bad or missing field, in the order a, b, mu, slope, names
    the error, as with ``parse_int`` on every field."""
    doc = {**GAP_DOC, "witnesses": [row]}
    assert _read_or_message(gap_certificate_from_json, doc) == ref_read_one_row(doc)


# ---------------------------------------------------------------------------
# Checking witness rows: the checker as it was before it reduced each row
# once and bounded its floor_mul calls by hi, kept as the reference
# ---------------------------------------------------------------------------


def ref_validate_gap_certificate(lattice: K0Lattice, cert: GapCertificate) -> list[str]:
    """Re-derive everything the certificate claims; returns failure messages."""
    failures: list[str] = []
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    if cert.mu_weights != (w0, w1):
        failures.append(
            f"mu weights {cert.mu_weights} do not match the algebra ({w0}, {w1})"
        )
    if cert.a < 1 or cert.b < 1:
        failures.append("returned pair must have positive coefficients")
    elif not _in_window_below(cert.r, cert.epsilon, cert.b, cert.a):
        failures.append(f"slope {ref_slope_text(cert.b, cert.a)} is not in (r - eps, r)")
    if cert.mu != w0 * cert.a + w1 * cert.b:
        failures.append("stored mu does not match the pair")
    if cert.budget != cert.mu + cert.k:
        failures.append("budget is not mu + k")

    # the scan is sorted: one pair past the rows settles any claimed budget
    got = sorted((a, b) for a, b, _, _ in cert.witnesses)
    if got != list(islice(ref_budget_pairs(w0, w1, cert.budget), len(got) + 1)):
        failures.append("witness list is not the full budget scan")
    for a, b, m, slope in cert.witnesses:
        if m != w0 * a + w1 * b:
            failures.append(f"witness ({a},{b}) has wrong mu {m}")
            continue
        if not (a or b) or slope != ref_slope_text(b, a):
            failures.append(f"witness ({a},{b}) has wrong slope {slope}")
            continue
        # is the reduced slope n/d, d > 0, strictly inside (b/a, r)?
        n, d = reduced_ratio(b, a)
        if d and cert.a >= 1 and n * cert.a > cert.b * d and cert.r.floor_mul(d) >= n:
            failures.append(
                f"witness ({a},{b}) has slope {slope} strictly inside "
                "the certified gap"
            )
    return failures


# read as the budget scans they are
BASE_CERTS = [
    certificate_from_canonical_text((GOLDEN_OUT / f"{name}.out").read_text(encoding="utf-8"))
    for name in (
        "gap-search-sqrt2",
        "gap-search-golden",
        "gap-search-sqrt7-over-2",
        "gap-search-negative-q",
    )
]


def pairs_near(r, max_a: int = 5000) -> list[tuple[int, int]]:
    """Pairs (a, b) with b/a close to r on either side: the Stern-Brocot
    ends of the walk toward r (r > 0) up to denominator ``max_a``, then the
    upper end hi of ``r.bracket()`` and its neighbours p/q with q = hi's
    denominator, so that rows lie in (r, hi), at hi and just above it."""
    a, b, c, d = 1, 0, 0, 1
    out = []
    while a + c <= max_a:
        if r_exceeds(r, b + d, a + c):
            a, b = a + c, b + d
            out.append((a, b))
        else:
            c, d = a + c, b + d
            out.append((c, d))
    _, hi = r.bracket()
    q, p = hi.denominator, hi.numerator
    out += [(q, p - 1), (q, p), (q, p + 1), (2 * q, 2 * p - 1), (2 * q, 2 * p + 1)]
    return out


NEAR = [pairs_near(cert.r) for cert in BASE_CERTS]


def test_pairs_near_r_reach_between_r_and_hi():
    """The rows that only the hi test sends to floor_mul do occur."""
    for cert, pairs in zip(BASE_CERTS, NEAR):
        lo, hi = cert.r.bracket()
        above = [lo < Fraction(b, a) < hi for a, b in pairs if not r_exceeds(cert.r, b, a)]
        below = [lo < Fraction(b, a) < hi for a, b in pairs if r_exceeds(cert.r, b, a)]
        assert any(above) and not all(above) and any(below), cert.r


def worse_pairs(cert, max_a: int = 40) -> list[tuple[int, int]]:
    """Pairs with a slope in the window below the certified one: moving the
    pair there leaves rows strictly inside (b/a, r)."""
    return [
        (a, b)
        for a in range(1, max_a + 1)
        for b in range(1, 2 * max_a)
        if b * cert.a < cert.b * a and ref_in_window_below(cert.r, cert.epsilon, b, a)
    ]


WORSE = [worse_pairs(cert) for cert in BASE_CERTS]
MUTATIONS = [
    "mu", "slope", "zero-row", "negative-a", "drop", "repeat", "extra",
    "near-r", "pair-a", "worse-pair",
]


@st.composite
def mutated_certificates(draw):
    which = draw(st.integers(0, len(BASE_CERTS) - 1))
    cert = BASE_CERTS[which]
    w0, w1 = cert.mu_weights
    rows = list(cert.witnesses)

    def row(a, b):
        return (a, b, w0 * a + w1 * b, ref_slope_text(b, a) if a or b else "0/0")

    for kind in draw(st.lists(st.sampled_from(MUTATIONS), min_size=1, max_size=4)):
        i = draw(st.integers(0, len(rows) - 1))
        a, b, m, text = rows[i]
        if kind == "mu":
            rows[i] = (a, b, m + draw(st.sampled_from([-1, 1, w0, -w1])), text)
        elif kind == "slope":
            k = draw(st.integers(2, 4))
            rows[i] = (a, b, m, draw(st.sampled_from([
                f"{b * k}/{a * k}", f"{-b}/{-a}", f"{b}/{a}", f"{b + 1}/{a or 1}",
                "inf", "0", "0/0", f" {text}", None, 7,
            ])))
        elif kind == "zero-row":
            rows.insert(i, (0, 0, 0, draw(st.sampled_from(["0/0", "inf", "0", None]))))
        elif kind == "negative-a":
            rows.insert(i, row(-(a or 1), -b))
        elif kind == "drop":
            del rows[i]
        elif kind == "repeat":
            rows.insert(i, rows[i])
        elif kind == "extra":
            rows.insert(i, row(draw(st.integers(0, 40)), draw(st.integers(0, 60))))
        elif kind == "near-r":
            a, b = draw(st.sampled_from(NEAR[which]))
            k = draw(st.sampled_from([1, 1, 2, -1]))
            rows.insert(i, row(a * k, b * k))
        elif kind == "pair-a":
            cert = replaced(cert, a=draw(st.integers(-2, 0)))
        else:  # worse-pair: the pair moves down the window, the budget stays
            a, b = draw(st.sampled_from(WORSE[which]))
            mu = w0 * a + w1 * b
            cert = replaced(cert, a=a, b=b, mu=mu, k=cert.budget - mu)
    return replaced(cert, witnesses=tuple(rows))


@given(cert=mutated_certificates())
@settings(max_examples=600, deadline=None)
def test_checker_matches_the_reference_on_mutated_certificates(lattice, cert):
    """Whole failure lists, in order, on every kind of tampering."""
    assert validate_gap_certificate(lattice, cert) == ref_validate_gap_certificate(
        lattice, cert
    )


def test_checker_matches_the_reference_with_rows_inside_the_gap(lattice):
    """Each worse pair, with every near row added: rows strictly inside
    (b/a, r), some just below r, some in (r, hi), at hi and above it.  The
    base certificates are read as scans, so the rows are checked one by one
    with the near rows added, and a block at a time without them."""
    for cert, worse, near in zip(BASE_CERTS, WORSE, NEAR):
        assert type(cert.witnesses) is BudgetScan
        w0, w1 = cert.mu_weights
        extra = tuple((a, b, w0 * a + w1 * b, ref_slope_text(b, a)) for a, b in near)
        assert worse
        for a, b in worse:
            mu = w0 * a + w1 * b
            moved = replaced(cert, a=a, b=b, mu=mu, k=cert.budget - mu)
            for witnesses in (tuple(cert.witnesses) + extra, cert.witnesses):
                moved = replaced(moved, witnesses=witnesses)
                got = validate_gap_certificate(lattice, moved)
                assert any("strictly inside" in f for f in got)
                assert got == ref_validate_gap_certificate(lattice, moved)


def test_checker_iterates_the_witnesses_once(lattice, monkeypatch):
    """No pass over the rows of the lattice's own scan, and one pass for
    wire tuples and for a scan of other weights or budget (which builds its
    rows while iterated), with the failure list still the reference's."""
    passes = []
    scan_iter = BudgetScan.__iter__

    def counted_scan_iter(self):
        passes.append(self)
        return scan_iter(self)

    class CountedRows(tuple):
        def __iter__(self):
            passes.append(self)
            return super().__iter__()

    monkeypatch.setattr(BudgetScan, "__iter__", counted_scan_iter)
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 50)
    assert passes == []
    assert validate_gap_certificate(lattice, cert) == [] and passes == []
    # the scan of swapped weights (a wrong mu on nearly every row), and the
    # lattice's scan under a budget that is not the certificate's
    w0, w1, budget = lattice.mu_h0, lattice.mu_hinf, cert.budget
    for other, failure in (
        (replaced(cert, witnesses=BudgetScan(w1, w0, budget)), "witness (0,1) has wrong mu 6"),
        (replaced(cert, budget=budget + 2), "witness list is not the full budget scan"),
    ):
        want = ref_validate_gap_certificate(lattice, other)
        assert failure in want
        passes.clear()
        assert validate_gap_certificate(lattice, other) == want and len(passes) == 1
    # a dropped row, a wrong mu and a wrong slope
    rows = list(cert.witnesses)[1:]
    rows[0] = rows[0][:2] + (rows[0][2] + 1, rows[0][3])
    rows.append((1, 1, 10, "2"))
    tampered = replaced(cert, witnesses=CountedRows(rows))
    want = ref_validate_gap_certificate(lattice, tampered)
    assert want[0] == "witness list is not the full budget scan" and len(want) == 3
    passes.clear()
    assert validate_gap_certificate(lattice, tampered) == want and len(passes) == 1


# ---------------------------------------------------------------------------
# Reading a canonical document by writing it again: certify with the byte
# path switched off, which reads every file by json.loads, row by row, kept
# as the reference
# ---------------------------------------------------------------------------


def certify(text: str, byte_path: bool = True, lam: str = "2") -> tuple[int, str]:
    """certify's exit code and output on a file that holds ``text``."""
    out = io.StringIO()
    with ExitStack() as stack:
        stack.enter_context(mock.patch.object(cli, "_read_text", lambda path: text))
        if not byte_path:
            stack.enter_context(
                mock.patch.object(search, "certificate_from_canonical_text", lambda text: None)
            )
        code = cli.run(["--lambda", lam, "certify", "doc.json"], out)
    return code, out.getvalue()


KEYS = ("a", "b", "mu", "slope")
# the golden gap-vector and tube-params documents, and the sqrt2 certificate
# as the scan of the swapped weights, which the checker reads row by row
CANONICAL_TEXTS = [
    *((GOLDEN_OUT / f"{name}.out").read_text(encoding="utf-8") for name in (
        "gap-search-sqrt2", "gap-search-golden", "gap-search-sqrt7-over-2",
        "gap-search-negative-q", "tube-params-eps-1-10", "tube-params-eps-1",
    )),
    dumps_canonical(gap_certificate_to_json(replaced(
        BASE_CERTS[0], mu_weights=(4, 6), witnesses=BudgetScan(4, 6, BASE_CERTS[0].budget)
    ))),
]
BYTE_EDITS = ["digit", "space", "swap-keys", "swap-rows", "newline", "respell"]
ROW = re.compile(r"\{[^{}]*\}")  # a witness row: the only objects with none inside
KEY_LINE = re.compile(r'^ *"\w+": [^\[{\n]*,$', re.M)  # a member before the last, no container
SLOPE = re.compile(r'(?<="slope": ")(?:inf|\d+(?:/\d+)?)(?=")')  # as the writer spells it


def swapped(text: str, first: tuple[int, int], second: tuple[int, int]) -> str:
    (s1, e1), (s2, e2) = sorted((first, second))
    return text[:s1] + text[s2:e2] + text[e1:s2] + text[s1:e1] + text[e2:]


@st.composite
def edited_texts(draw):
    """A canonical document with up to two edits of its bytes: a digit, an
    added space, two members or two rows swapped, the trailing newline
    dropped, a slope spelt another way."""
    text = draw(st.sampled_from(CANONICAL_TEXTS))
    for kind in draw(st.lists(st.sampled_from(BYTE_EDITS), max_size=2)):
        if kind == "digit":  # anywhere, or in the members before the rows
            end = draw(st.sampled_from([len(text), text.find('"witnesses"')]))
            i = draw(st.sampled_from([m.start() for m in re.finditer(r"\d", text[:end])]))
            text = text[:i] + draw(st.sampled_from("0123456789".replace(text[i], ""))) + text[i + 1 :]
        elif kind == "space":
            i = draw(st.integers(0, len(text)))
            text = text[:i] + " " + text[i:]
        elif kind == "newline":
            text = text[:-1]
        elif kind == "respell" and SLOPE.search(text):
            m = draw(st.sampled_from(list(SLOPE.finditer(text))))
            n, _, d = m.group().partition("/")
            other = ["oo", " inf"] if n == "inf" else [f"{2 * int(n)}/{2 * int(d or 1)}", f" {n}"]
            text = text[: m.start()] + draw(st.sampled_from(other)) + text[m.end() :]
        elif kind != "respell":
            spans = [m.span() for m in (KEY_LINE if kind == "swap-keys" else ROW).finditer(text)]
            first, second = draw(st.lists(st.sampled_from(spans), min_size=2, max_size=2, unique=True))
            text = swapped(text, first, second)
    return text


@given(text=edited_texts(), lam=st.sampled_from(["2", "5/3"]))
@example(text=CANONICAL_TEXTS[0], lam="2")
@settings(max_examples=300, deadline=None)
def test_reader_and_checker_match_the_per_row_reference(text, lam):
    """certify answers each edit of a canonical document, byte for byte and
    with its exit code, as the json.loads read does; and a value that the
    byte path reads equals the json.loads read of the same text."""
    assert certify(text, lam=lam) == certify(text, byte_path=False, lam=lam)
    value = certificate_from_canonical_text(text)
    if value is not None:
        data = json.loads(text)
        read = gap_certificate_from_json if data["kind"] == "gap-vector" else tube_params_from_json
        assert value == read(data)


def test_wire_mutations_reach_both_readers():
    """Pins the generator: each canonical text is read by the byte path as
    its scan, and each kind of byte edit sends a text to the json.loads
    read; a digit of the header is read as it stands, since the writer
    spells it again."""
    for text in CANONICAL_TEXTS:
        value = certificate_from_canonical_text(text)
        gap = value if type(value) is GapCertificate else value.certificate
        assert type(gap.witnesses) is BudgetScan
    text = CANONICAL_TEXTS[0]
    assert '"a": 5,\n  "b": 7,' in text and '"mu": 4,' in text and '"slope": "inf"' in text
    rows = [m.span() for m in ROW.finditer(text)]
    for edited in (
        text.replace('"mu": 4,', '"mu": 5,', 1),
        text.replace('"mu": 4,', '"mu":  4,', 1),
        text.replace('"a": 5,\n  "b": 7,', '"b": 7,\n  "a": 5,'),
        swapped(text, rows[0], rows[1]),
        text[:-1],
        text + "]\n",
        text + "  ]\n",  # a line at the witnesses' indent, where the cut from the end falls
        text.replace('"slope": "inf"', '"slope": "oo"', 1),
    ):
        assert edited != text and certificate_from_canonical_text(edited) is None
    assert certificate_from_canonical_text(text.replace('"k": 50,', '"k": 51,')).k == 51


def _within_a_second(run):
    def stop(signum, frame):
        raise TimeoutError("ran for more than a second")

    previous = signal.signal(signal.SIGALRM, stop)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        return run()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize(
    "weights, budget, rows",
    [((10**30, 10**30), 10**30, 2), ((10**30, 1), 10**20, None)],
    ids=["two-rows-of-weights-10**30", "sqrt2-rows-w0-10**30-budget-10**20"],
)
def test_a_budget_above_the_rows_is_read_row_by_row_within_a_second(
    lattice, weights, budget, rows
):
    """A canonical document whose claimed budget exceeds its length, here by
    far through weights of 10**30 (a = 0 alone would be 10**20 rows), is
    never sized as a scan: the byte path gives up on its header, and the
    rows are read, checked and written as the per-row reference does."""
    w0, w1 = weights
    doc = {**GAP_DOC, "mu_weights": [w0, w1], "budget": budget}
    if rows is not None:
        doc["witnesses"] = [dict(zip(KEYS, row)) for row in BudgetScan(w0, w1, budget)]
        assert len(doc["witnesses"]) == rows
    text = dumps_canonical(doc)
    assert _within_a_second(lambda: certificate_from_canonical_text(text)) is None
    code, out = _within_a_second(lambda: certify(text))
    assert (code, out) == certify(text, byte_path=False) and code == 1
    cert = _within_a_second(lambda: gap_certificate_from_json(doc))
    assert cert.witnesses == tuple(map(ref_witness_from_json, doc["witnesses"]))
    got = _within_a_second(lambda: validate_gap_certificate(lattice, cert))
    assert got == ref_validate_gap_certificate(lattice, cert) == json.loads(out)["failures"]
    assert _within_a_second(lambda: dumps_canonical(gap_certificate_to_json(cert))) == text


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_a_padded_document_is_written_from_lists_the_size_of_its_rows(monkeypatch):
    """Nine rows of weights (10**6, 10**6) under a budget of 3 * 10**6, with
    the witness array padded by as many spaces, so that the budget is within
    the text's length: the byte path writes the scan, which spells no
    integer it has no row for, and refuses the padded text."""
    w0 = w1 = 10**6
    budget = 3 * w0
    rows = [dict(zip(KEYS, row)) for row in BudgetScan(w0, w1, budget)]
    doc = {**GAP_DOC, "mu_weights": [w0, w1], "budget": budget, "witnesses": rows}
    text = dumps_canonical(doc).replace('"witnesses": [', '"witnesses": [' + " " * budget, 1)
    assert len(rows) == 9 and len(text) > budget and json.loads(text) == doc
    written = []
    scan_blocks = serialize._scan_blocks
    monkeypatch.setattr(serialize, "_scan_blocks", lambda *args: written.append(args) or scan_blocks(*args))
    tracemalloc.start()
    try:
        assert _within_a_second(lambda: certificate_from_canonical_text(text)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(written) == 1 and peak < 8 * 10**6


def _weights_1_1_budget_near_the_length() -> dict:
    doc = {**GAP_DOC, "mu_weights": [1, 1], "budget": 0}
    return {**doc, "budget": len(dumps_canonical(doc))}


HOSTILE = {
    "b-minus-10**40": lambda: gap_certificate_to_json(replaced(BASE_CERTS[0], b=-(10**40))),
    "a-10**40": lambda: gap_certificate_to_json(replaced(BASE_CERTS[0], a=10**40)),
    "budget-10**40-five-rows": lambda: {
        **GAP_DOC, "budget": 10**40, "witnesses": GAP_DOC["witnesses"][:5]
    },
    "weights-1-1-budget-near-the-length": _weights_1_1_budget_near_the_length,
}


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
@pytest.mark.parametrize("name", HOSTILE)
def test_hostile_headers_are_checked_within_a_second(name, monkeypatch):
    """The golden sqrt2 certificate's scan under a hostile pair, which the
    byte path reads and the block check clamps at b = 0 for each a; five
    of its rows under a claimed budget of 10**40; and its rows under weights
    (1, 1) and a budget within the document's length, a scan of about
    len(text)**2 / 2 rows.  The byte path refuses the last two before any
    row is written, and certify answers as the json.loads read does."""
    text = dumps_canonical(HOSTILE[name]())
    want = certify(text, byte_path=False)
    scan = name in ("b-minus-10**40", "a-10**40")
    if not scan:
        def no_rows(*args):
            raise AssertionError("a row of the claimed scan was built")

        monkeypatch.setattr(BudgetScan, "__iter__", no_rows)
        monkeypatch.setattr(serialize, "_scan_blocks", no_rows)
    value = _within_a_second(lambda: certificate_from_canonical_text(text))
    assert (value is not None) == scan
    assert not scan or type(value.witnesses) is BudgetScan
    assert _within_a_second(lambda: certify(text)) == want and want[0] == 1


# ---------------------------------------------------------------------------
# p bound and quasisimple estimates
# ---------------------------------------------------------------------------


def test_p_bound_value_and_reversed_fold(lattice, exceptional_set):
    p = p_bound(lattice, exceptional_set)
    assert p == 4
    reversed_set = ExceptionalSet(
        elements=tuple(reversed(exceptional_set.elements)),
        bound=exceptional_set.bound,
    )
    assert p_bound(lattice, reversed_set) == p
    assert p >= 0


def test_quasisimple_bounds_example(lattice, exceptional_set):
    qb = quasisimple_bounds(lattice, exceptional_set, 5, 7, 2)
    assert qb.p == 4
    assert qb.lower == Fraction(58, 2) - 4 == 25
    assert qb.center == 29  # rank equals the pairing, so the band is two-sided

    one_sided = quasisimple_bounds(lattice, exceptional_set, 2, 3, 1)
    assert one_sided.center is None
    assert one_sided.lower == Fraction(24, 2) - 4


def test_quasisimple_bounds_rejections(lattice, exceptional_set):
    assert max_hinf_pairing(lattice, exceptional_set) == 2
    with pytest.raises(PreconditionError):
        quasisimple_bounds(lattice, exceptional_set, 3, 4, 2)  # b = 4 not > 4
    with pytest.raises(PreconditionError):
        quasisimple_bounds(lattice, exceptional_set, 2, 6, 2)  # gcd != 1


# ---------------------------------------------------------------------------
# Tube parameters
# ---------------------------------------------------------------------------


def test_tube_parameters_frozen_example(lattice, exceptional_set):
    tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), 1)
    assert (tp.a, tp.b) == (5, 7)
    assert tp.rank == 2
    assert tp.p == 4
    assert tp.k_used == 18  # smallest k with k/2 - 2p >= d
    assert tp.lower_bound == 25
    assert gcd(tp.a, tp.b) == 1
    assert validate_tube_params(lattice, exceptional_set, tp) == []
    assert oracle_competitors(lattice, tp.a, tp.b, SQRT2, tp.certificate.budget) == []


def test_tube_parameters_threshold_forces_shrink(lattice, exceptional_set):
    # with a wide window the k = 18 winner is (3, 4); b = 4 fails b > 4 and
    # the window must shrink past slope 4/3
    cert = gap_vector(lattice, SQRT2, Fraction(1, 10), 18)
    assert (cert.a, cert.b) == (3, 4)
    tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), 1)
    assert tp.b > tp.threshold
    assert Fraction(tp.b, tp.a) > Fraction(4, 3)


def test_tube_parameters_gap_scaling(lattice, exceptional_set):
    for d in (1, 2, 5):
        tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), d)
        assert Fraction(tp.k_used, 2) - 2 * tp.p >= d
        s = Fraction(tp.b, tp.a)
        assert SQRT2 > s and SQRT2 < s + Fraction(1, 10)


def test_tube_params_json_round_trip(lattice, exceptional_set):
    tp = tube_parameters(lattice, exceptional_set, SQRT2, Fraction(1, 10), 2)
    data = tube_params_to_json(tp)
    assert tube_params_from_json(data) == tp
    assert validate_tube_params(lattice, exceptional_set, tube_params_from_json(data)) == []


def test_other_irrationals(lattice, exceptional_set):
    golden = parse_quad_irrational("(1+sqrt(5))/2")
    cert = gap_vector(lattice, golden, Fraction(1, 10), 20)
    assert validate_gap_certificate(lattice, cert) == []
    assert oracle_competitors(lattice, cert.a, cert.b, golden, cert.budget) == []
    res = delta_for(lattice, exceptional_set, golden, Fraction(1, 16))
    assert 0 < res.delta <= Fraction(1, 32)
