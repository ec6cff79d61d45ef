"""Certified slope searches in the radical cone.

A nonnegative combination a*h0 + b*hinf has slope b/a and total dimension
mu = a*mu(h0) + b*mu(hinf).  Perturbing by an exceptional vector y shifts the
slope to (b + gamma1)/(a + gamma2) with rational offsets computed from the
pairings of y against h0 and hinf.  Everything here reduces to finitely many
integer comparisons:

* the strip enumerators list all pairs caught between a rational slope bound
  and a perturbed one, with a derived completeness bound on a, on integer
  numerators over one common denominator;
* ``delta_for`` shrinks a slope window until perturbed membership forces
  unperturbed membership, by excluding the finitely many exceptions: each
  candidate pair costs one or two ``floor_mul`` calls, and
  ``distance_lower_bound`` runs only on the exceptions less than twice as
  far from r as the nearest one, the only ones that can set delta;
* ``gap_vector`` walks the Stern-Brocot tree toward r to the pair of least
  total dimension mu whose slope in (r - eps, r) is the best slope below r
  of all pairs within dimension mu + k, and certifies it by every pair
  within that budget, one row (a, b, mu, slope text) per pair, made only
  when the certificate is written; ``certificate_from_canonical_text``
  reads a canonical document back as that budget scan by writing it again
  from its header and comparing the bytes, and the scan is checked a block
  of equal a at a time;
* ``tube_parameters`` turns a requested dimension gap d into a choice of k,
  a certified gap vector and the resulting dimension bounds.

Both certificate kinds travel as JSON documents declared once, in
``_KINDS``: each wire field with its writer and its reader, which one
generic writer and one generic reader run over.

The pair (a, b) always ranges over a >= 1, b >= 0: the slope b/a must be
defined, so the a = 0 edge of the natural numbers is excluded throughout.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import chain, islice, repeat
from math import ceil, floor, gcd, lcm

from .errors import BudgetExhaustedError, PreconditionError, SpecFormatError, TubelatError
from .exceptional import ExceptionalSet
from .lattice import K0Lattice, Slope, mu, reduced_ratio, slope_text
from .quadirr import QuadIrrational, parse_quad_irrational
from .serialize import Rows, dumps_canonical, frac_to_str, parse_frac, parse_int
from .value import Value

MAX_SHRINK_ROUNDS = 64  # window shrinks in tube_parameters before budget-exhausted


class PerturbedSlopeParams(Value):
    """Offsets making slope(a*h0 + b*hinf + y) = (b + gamma1)/(a + gamma2)."""

    __slots__ = ("gamma1", "gamma2", "y")


def perturbed_params(lattice: K0Lattice, y) -> PerturbedSlopeParams:
    y = tuple(y)
    return PerturbedSlopeParams(
        Fraction(lattice.bilinear(lattice.h0, y), lattice.pairing),
        Fraction(-lattice.bilinear(lattice.hinf, y), lattice.pairing),
        y,
    )


# ---------------------------------------------------------------------------
# Finite strip enumerators
# ---------------------------------------------------------------------------


def _check_strip_args(r1: Fraction, r2: Fraction) -> tuple[Fraction, Fraction]:
    r1, r2 = Fraction(r1), Fraction(r2)
    if not 0 < r1 < r2:
        raise PreconditionError(f"need 0 < r1 < r2, got r1={r1}, r2={r2}")
    return r1, r2


def _a_ceiling(main_bound: Fraction, g2: Fraction) -> int:
    """Largest a that any branch of the case analysis can reach."""
    top = 0
    if main_bound >= 1:
        top = floor(main_bound)
    if g2 < 0:
        top = max(top, ceil(-g2))
    return top


def _over_common_denominator(g1: Fraction, g2: Fraction) -> tuple[int, int, int]:
    """(G1, G2, D) with g1 = G1/D, g2 = G2/D and D > 0 the least such."""
    D = lcm(g1.denominator, g2.denominator)
    return g1.numerator * (D // g1.denominator), g2.numerator * (D // g2.denominator), D


def strip_pairs_below(r1, r2, gamma1, gamma2) -> list[tuple[int, int]]:
    """All (a, b), a >= 1, b >= 0 with b/a <= r1 and perturbed slope >= r2.

    Completeness: when a + gamma2 > 0 the two constraints squeeze
    a <= (gamma1 - r2*gamma2)/(r2 - r1); the remaining branches force
    a <= -gamma2.  Every a up to the larger bound is scanned exactly.

    The scan runs on integers: with r_i = n_i/d_i, gamma_i = G_i/D and
    E = a*D + G2 = D*(a + gamma2), each bound r_i*(a + gamma2) - gamma1 is
    (n_i*E - d_i*G1)/(d_i*D), and each floor or ceil is one ``//``.
    """
    r1, r2 = _check_strip_args(r1, r2)
    g1, g2 = Fraction(gamma1), Fraction(gamma2)
    a_max = _a_ceiling((g1 - r2 * g2) / (r2 - r1), g2)
    n1, d1, n2, d2 = r1.numerator, r1.denominator, r2.numerator, r2.denominator
    G1, G2, D = _over_common_denominator(g1, g2)
    scale = d2 * D
    out: list[tuple[int, int]] = []
    for a in range(1, a_max + 1):
        hi = n1 * a // d1  # floor(r1*a) >= 0, as r1 > 0
        E = a * D + G2
        if E > 0:
            lo = max(0, -((d2 * G1 - n2 * E) // scale))  # ceil(r2*(a + g2) - g1)
        elif E == 0:
            lo = max(0, -G1 // D + 1)  # ratio is +infinity iff b + g1 > 0
        else:
            # ratio >= r2 > 0 with negative denominator forces b + g1 <= r2*den
            hi = min(hi, (n2 * E - d2 * G1) // scale)  # floor(r2*(a + g2) - g1)
            lo = 0
        out.extend((a, b) for b in range(lo, hi + 1))
    return out


def strip_pairs_above(r1, r2, gamma1, gamma2) -> list[tuple[int, int]]:
    """All (a, b), a >= 1, b >= 0 with 0 < perturbed slope <= r1 and b/a >= r2.

    The scan runs on integers, as in ``strip_pairs_below``.
    """
    r1, r2 = _check_strip_args(r1, r2)
    g1, g2 = Fraction(gamma1), Fraction(gamma2)
    a_max = _a_ceiling((r1 * g2 - g1) / (r2 - r1), g2)
    n1, d1, n2, d2 = r1.numerator, r1.denominator, r2.numerator, r2.denominator
    G1, G2, D = _over_common_denominator(g1, g2)
    scale = d1 * D
    out: list[tuple[int, int]] = []
    for a in range(1, a_max + 1):
        lo = -(-n2 * a // d2)  # ceil(r2*a) >= 1, as r2 > 0
        E = a * D + G2
        if E > 0:
            lo = max(lo, -G1 // D + 1)  # positivity: b + g1 > 0
            hi = (n1 * E - d1 * G1) // scale  # floor(r1*(a + g2) - g1)
        elif E == 0:
            continue  # ratio is infinite or undefined, never in (0, r1]
        else:
            lo = max(lo, -((d1 * G1 - n1 * E) // scale))  # ceil(r1*(a + g2) - g1)
            hi = -(G1 // D) - 1  # positivity: b + g1 < 0
        out.extend((a, b) for b in range(lo, hi + 1))
    return out


# ---------------------------------------------------------------------------
# Window shrinking (delta selection)
# ---------------------------------------------------------------------------


class ExceptionRecord(Value):
    """A pair whose perturbed slope sits near r while its raw slope escapes
    the epsilon window; delta is chosen below every such perturbed slope."""

    __slots__ = ("a", "b", "y", "perturbed")


class DeltaResult(Value):
    __slots__ = ("delta", "eps_prime", "exceptions")  # exceptions: ExceptionRecords


def _check_window(r: QuadIrrational, eps: Fraction) -> Fraction:
    eps = parse_frac(eps)
    if eps <= 0 or not r > eps:
        raise PreconditionError(f"need 0 < eps < r, got eps={eps}")
    return eps


def _in_window_below(r: QuadIrrational, eps: Fraction, b: int, a: int) -> bool:
    """b/a in (r - eps, r): for a > 0 and eps = e/f, floor(a*r) >= b and
    floor(a*f*r) < b*f + e*a.  For a = 0 these read b <= 0 < b, so false."""
    if a < 0:
        a, b = -a, -b
    e, f = eps.numerator, eps.denominator
    return r.floor_mul(a) >= b and r.floor_mul(a * f) < b * f + e * a


def _could_set_delta(
    r: QuadIrrational, below: list[Fraction], above: list[Fraction]
) -> list[Fraction]:
    """The slopes t, from ``below`` (all < r) and ``above`` (all > r), with
    d(t) = |r - t| under 2*d_min, d_min the least d(t): the only ones whose
    ``r.distance_lower_bound(t)`` can be the least (see ``delta_for``).

    The nearest t, x, is max(below) or min(above): the first exactly when
    r - max(below) < min(above) - r, that is r < (max(below) + min(above))/2.
    For x < r, d(t) < 2*d(x) reads r > 2x - t for t < r, and r > (2x + t)/3
    for t > r; for x > r it reads r < 2x - t and r < (2x + t)/3.  So each
    decision is one comparison of r with a rational, made by ``floor_mul``
    on the numerators and denominators of x and t.
    """
    if below and (not above or r < (max(below) + min(above)) / 2):
        x, x_below, same, other = max(below), True, below, above
    elif above:
        x, x_below, same, other = min(above), False, above, below
    else:
        return []
    X, Y = x.numerator, x.denominator

    def keep(t: Fraction, k: int, sign: int) -> bool:
        # r > (2x + sign*t)/k, as r*k*Y*m > 2*X*m + sign*n*Y for t = n/m
        n, m = t.numerator, t.denominator
        return (r.floor_mul(k * Y * m) >= 2 * X * m + sign * n * Y) == x_below

    return [t for t in same if keep(t, 1, -1)] + [t for t in other if keep(t, 3, 1)]


def delta_for(
    lattice: K0Lattice,
    exceptional: ExceptionalSet,
    r: QuadIrrational,
    eps,
) -> DeltaResult:
    """A delta in (0, eps) such that perturbed slope within delta of r forces
    the raw slope b/a within eps of r, for every a >= 1, b >= 0 and every
    exceptional y.

    Strategy: fix eps' = eps/2, bracket r once, within g = eps/8, enumerate
    the finitely many candidate exceptions with the two strip enumerators,
    and take delta below every exceptional perturbed slope's distance to r
    (and at most eps'): delta = min(eps', distance_lower_bound(rho)/2).

    Each candidate is tested on integers.  With gamma_i = G_i/D, the
    perturbed slope is rho = (b*D + G1)/(a*D + G2) = num/den, signs flipped
    so that den > 0.  For eps' = e'/f', |rho - r| < eps' says
    num*f' - e'*den <= floor(r*den*f') < num*f' + e'*den, one ``floor_mul``,
    and rho < r exactly when floor(r*den*f') >= num*f'; the raw test
    |b/a - r| < eps is the same with (b, a) and eps.  Only an exception
    gets a ``Fraction``.

    ``distance_lower_bound`` runs only on the exceptions that can set the
    minimum (``_could_set_delta``).  Its value lies in [d/2, d) for
    d = |r - rho|.  So an exception with d >= 2*d_min, d_min the least d,
    has a bound of at least d/2 >= d_min, more than the bound (< d_min) of
    the nearest exception, and never sets the minimum: the minimum over the
    rest is the minimum over all.  d = 2*d_min never holds, since it would
    make r rational, so the rest are exactly the rho with d < 2*d_min.
    """
    eps = _check_window(r, eps)
    eps_prime = eps / 2
    g = eps / 8
    # r - g < below < r < above < r + g
    below, above = r.bracket_until(lambda lo, hi: hi - lo < g)
    u1 = above + eps_prime  # in (r + eps', r + eps' + g)
    u2 = above + eps_prime + 2 * g  # in (r + eps' + 2g, r + eps' + 3g)
    t1 = below - (eps - g)  # in (r - eps, r - eps + g)
    t2 = below - eps_prime - 2 * g  # in (r - eps' - 3g, r - eps' - 2g)
    e, f = eps.numerator, eps.denominator
    e_prime, f_prime = eps_prime.numerator, eps_prime.denominator

    # the two strip enumerators list each (a, b) once and never share one
    # (b/a >= u2 > r above, b/a <= t1 < r below), so no key repeats
    exceptions: list[ExceptionRecord] = []
    rho_below: list[Fraction] = []  # exceptional perturbed slopes below r
    rho_above: list[Fraction] = []
    for y in exceptional:
        params = perturbed_params(lattice, y)
        G1, G2, D = _over_common_denominator(params.gamma1, params.gamma2)
        candidates = strip_pairs_above(u1, u2, params.gamma1, params.gamma2)
        candidates += strip_pairs_below(t1, t2, params.gamma1, params.gamma2)
        for a, b in candidates:
            num, den = b * D + G1, a * D + G2
            if den == 0:
                continue  # no perturbed slope
            if den < 0:
                num, den = -num, -den
            cut = r.floor_mul(den * f_prime)
            if not num * f_prime - e_prime * den <= cut < num * f_prime + e_prime * den:
                continue  # perturbed slope outside (r - eps', r + eps')
            raw = r.floor_mul(a * f)
            if b * f - e * a <= raw < b * f + e * a:
                continue  # raw slope already inside the eps window
            rho = Fraction(num, den)
            exceptions.append(ExceptionRecord(a, b, params.y, rho))
            (rho_below if cut >= num * f_prime else rho_above).append(rho)

    exceptions.sort(key=lambda rec: (rec.a, rec.b, rec.y))
    delta = eps_prime
    for rho in _could_set_delta(r, rho_below, rho_above):
        delta = min(delta, r.distance_lower_bound(rho) / 2)
    return DeltaResult(delta, eps_prime, tuple(exceptions))


# ---------------------------------------------------------------------------
# Gap vectors and their certificates
# ---------------------------------------------------------------------------


class GapCertificate(Value):
    """A certified best-from-below approximation in the radical cone.

    ``witnesses`` holds a row (a, b, mu, slope_text(b, a)) for each pair with
    total dimension at most ``budget``; validity means none of them has slope
    strictly between the returned slope and r.  From ``gap_vector`` it is a
    lazy ``BudgetScan``, and from ``certificate_from_canonical_text`` the
    ``BudgetScan`` of the document's own weights and budget; from
    ``gap_certificate_from_json`` it is the tuple of the rows as read.
    ``validate_gap_certificate`` checks the scan of the lattice's weights a
    block of equal a at a time and anything else row by row.  The two forms
    compare equal when their rows do.
    """

    __slots__ = ("r", "epsilon", "k", "a", "b", "mu", "budget", "mu_weights", "witnesses")
    kind = "gap-vector"  # the wire name of the document

    @property
    def slope(self) -> Slope:
        return Slope.from_ratio(self.b, self.a)


class BudgetScan(Value):
    """The budget scan: a row (a, b, mu, slope_text(b, a)) for every (a, b)
    in N^2 minus the origin with mu = w0*a + w1*b <= budget, sorted.
    ``blocks`` is its one definition, read by iteration, by ``len`` (which
    sums its ranges), by both checks of ``validate_gap_certificate`` and by
    the writer, ``serialize._write_rows``; only iteration builds rows.  The
    view equals, and hashes as, the tuple of its rows.  ``gap_vector`` makes
    one, and so does ``certificate_from_canonical_text`` from a document's
    header."""

    __slots__ = ("w0", "w1", "budget")

    def blocks(self):
        """(a, range of b) for each a with rows, in row order."""
        w0, w1, budget = self.w0, self.w1, self.budget
        for a in range(budget // w0 + 1):
            bs = range(0 if a else 1, (budget - w0 * a) // w1 + 1)
            if bs:  # empty only for a = 0, when budget < w1
                yield a, bs

    def __iter__(self):
        w0, w1 = self.w0, self.w1
        return ((a, b, w0 * a + w1 * b, slope_text(b, a)) for a, bs in self.blocks() for b in bs)

    def __len__(self) -> int:
        return sum(len(bs) for _, bs in self.blocks())

    def __eq__(self, other):
        if not isinstance(other, (tuple, BudgetScan)):
            return NotImplemented
        scan = (self.w0, self.w1, self.budget)
        if type(other) is BudgetScan and (other.w0, other.w1, other.budget) == scan:
            return True  # the same scan: no row built
        return len(self) == len(other) and tuple(self) == tuple(other)

    def __hash__(self) -> int:
        return hash(tuple(self))


def gap_vector(
    lattice: K0Lattice,
    r: QuadIrrational,
    eps,
    k: int,
    max_mu: int = 200_000,
) -> GapCertificate:
    """Find a*h0 + b*hinf with slope in (r - eps, r) such that every radical
    pair with slope strictly between it and r has total dimension greater
    than mu + k, with the least such mu <= max_mu.

    The search walks the Stern-Brocot tree toward r from 0/1 and 1/0: each
    step replaces one of the Farey neighbours b/a < r < d/c (d*a - b*c = 1)
    by their mediant (b + d)/(a + c), with one ``floor_mul``.

    Soundness: a slope p/q in (b/a, d/c) has p*a - b*q >= 1 and
    d*q - p*c >= 1, so q = a*(d*q - p*c) + c*(p*a - b*q) >= a + c and
    likewise p >= b + d.  With s(x, y) = w0*x + w1*y and mu = s(a, b), every
    pair with slope in (b/a, r) weighs at least mu + s(c, d): once
    s(c, d) > k, none is within mu + k.

    Least mu: a slope x/y < r with no slope in (x/y, r) of weight at most
    s(y, x) is a lower end, or the walk would pass it at a mediant in
    (x/y, r) with numerator and denominator at most x and y.  Lower ends
    come in increasing weight, and s(c, d) only grows while b/a stays, so
    the first in the window with s(c, d) > k has the least mu.  Walk
    fractions are reduced, so the pair is too.

    Bound: a lower end outside the window never qualifies, and every later
    one weighs at least the mediant, so the walk gives up once that exceeds
    max_mu.  One in the window goes on only while s(c, d) <= k, so the
    mediant, gaining at least min(w0, w1) a step, stays within max_mu + k.

    ``witnesses`` is the ``BudgetScan`` of (w0, w1, mu + k): no row is built.
    """
    eps = _check_window(r, eps)
    if k < 0:
        raise PreconditionError("k must be nonnegative")
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    a, b, c, d = 1, 0, 0, 1
    while (mu := w0 * a + w1 * b) <= max_mu:
        inside = _in_window_below(r, eps, b, a)
        if inside and w0 * c + w1 * d > k:
            return GapCertificate(
                r=r, epsilon=eps, k=k, a=a, b=b, mu=mu, budget=mu + k,
                mu_weights=(w0, w1), witnesses=BudgetScan(w0, w1, mu + k),
            )
        if not inside and mu + w0 * c + w1 * d > max_mu:
            break  # b/a never qualifies, and later lower ends are too heavy
        if r.floor_mul(a + c) < b + d:  # the mediant is above r
            c, d = a + c, b + d
        else:
            a, b = a + c, b + d
    raise BudgetExhaustedError(
        f"no certified gap vector with total dimension <= {max_mu}"
    )


def _scan_rows_inside_the_gap(scan: BudgetScan, r: QuadIrrational, ca: int, cb: int) -> list[str]:
    """The failures of the rows of ``scan`` with slope strictly inside
    (cb/ca, r), in row order, one ``floor_mul`` per block and no row built.
    For a >= 1 and ca >= 1, cb/ca < b/a reads b >= cb*a//ca + 1, and b/a < r
    (r is irrational) reads b <= floor(a*r); rows with a = 0 have no finite
    slope."""
    if ca < 1:
        return []
    failures = []
    for a, bs in scan.blocks():
        lo = max(0, cb * a // ca + 1)
        if a and lo < bs.stop:
            failures += (
                f"witness ({a},{b}) has slope {slope_text(b, a)} strictly inside "
                "the certified gap"
                for b in range(lo, min(bs.stop, r.floor_mul(a) + 1))
            )
    return failures


def validate_gap_certificate(lattice: K0Lattice, cert: GapCertificate) -> list[str]:
    """Re-derive everything the certificate claims; returns failure messages.

    Witnesses that are the ``BudgetScan`` of the lattice's weights and
    ``cert.budget`` are complete, with right mu and slope texts, by
    construction; only their rows inside the gap remain, found a block of
    equal a at a time (``_scan_rows_inside_the_gap``).  Any other witnesses
    are checked row by row, and the messages are the same either way.

    In the row loop each row's (b, a) is reduced once to n/d, which gives
    both its slope text and the test "n/d strictly inside (cert.b/cert.a,
    r)".  That test needs ``floor_mul(d)`` only below one rational upper end
    hi > r of ``r.bracket()``, taken once per call: n/d >= hi > r already
    means ``floor_mul(d) < n``, so the integer test n * hi.denominator <
    hi.numerator * d settles every row far above r without an ``isqrt``.
    """
    failures: list[str] = []
    w0, w1 = lattice.mu_h0, lattice.mu_hinf
    if cert.mu_weights != (w0, w1):
        failures.append(
            f"mu weights {cert.mu_weights} do not match the algebra ({w0}, {w1})"
        )
    if cert.a < 1 or cert.b < 1:
        failures.append("returned pair must have positive coefficients")
    elif not _in_window_below(cert.r, cert.epsilon, cert.b, cert.a):
        failures.append(f"slope {slope_text(cert.b, cert.a)} is not in (r - eps, r)")
    if cert.mu != w0 * cert.a + w1 * cert.b:
        failures.append("stored mu does not match the pair")
    if cert.budget != cert.mu + cert.k:
        failures.append("budget is not mu + k")
    r, ca, cb = cert.r, cert.a, cert.b
    rows = cert.witnesses
    if type(rows) is BudgetScan and (rows.w0, rows.w1, rows.budget) == (w0, w1, cert.budget):
        return failures + _scan_rows_inside_the_gap(rows, r, ca, cb)

    # one pass over the rows, which a BudgetScan builds while iterated; their
    # own failures follow the completeness check's
    got: list[tuple[int, int]] = []
    row_failures: list[str] = []
    _, hi = r.bracket()
    hn, hd = hi.numerator, hi.denominator
    for a, b, m, slope in rows:
        got.append((a, b))
        if m != w0 * a + w1 * b:
            row_failures.append(f"witness ({a},{b}) has wrong mu {m}")
            continue
        if a > 0:  # the wire text of slope_text, from the one reduction
            g = gcd(b, a)
            n, d = b // g, a // g
            text = str(n) if d == 1 else f"{n}/{d}"
        elif a or b:  # infinity, or a tampered row with a < 0
            n, d = reduced_ratio(b, a)
            text = slope_text(b, a)
        else:
            text = None  # 0/0 is no slope
        if text is None or slope != text:
            row_failures.append(f"witness ({a},{b}) has wrong slope {slope}")
            continue
        # is the reduced slope n/d, d > 0, strictly inside (b/a, r)?
        if d and ca >= 1 and n * ca > cb * d and n * hd < hn * d and r.floor_mul(d) >= n:
            row_failures.append(
                f"witness ({a},{b}) has slope {slope} strictly inside "
                "the certified gap"
            )
    # the scan is sorted: one pair past the rows settles any claimed budget
    got.sort()
    blocks = BudgetScan(w0, w1, cert.budget).blocks()
    if got != list(islice(chain.from_iterable(zip(repeat(a), bs) for a, bs in blocks), len(got) + 1)):
        failures.append("witness list is not the full budget scan")
    return failures + row_failures


# ---------------------------------------------------------------------------
# Dimension estimates for quasisimples and tube-parameter selection
# ---------------------------------------------------------------------------


def max_hinf_pairing(lattice: K0Lattice, exceptional: ExceptionalSet) -> int:
    return max(abs(lattice.bilinear(lattice.hinf, y)) for y in exceptional)


def p_bound(lattice: K0Lattice, exceptional: ExceptionalSet) -> int:
    """The uniform bound p: for every exceptional y,
    |(mu(<hinf,y>*h0 - <h0,y>*hinf) + mu(y)) / <h0,hinf>| <= p,
    rounded up to an integer.  Independent of any slope queried later."""
    best = 0
    for y in exceptional:
        c_h0 = lattice.bilinear(lattice.hinf, y)
        c_hinf = lattice.bilinear(lattice.h0, y)
        # mu(c_h0*h0 - c_hinf*hinf) + mu(y), as mu is linear
        best = max(best, abs(lattice.mu_of_pair(c_h0, -c_hinf) + mu(y)))
    return -(-best // lattice.pairing)  # the pairing is positive


class QuasisimpleBounds(Value):
    """dim(E) >= lower for quasisimples at slope b/a; when the tube rank
    equals the pairing, dim(E) also lies within p of ``center`` (else None)."""

    __slots__ = ("lower", "center", "p")


def quasisimple_bounds(
    lattice: K0Lattice,
    exceptional: ExceptionalSet,
    a: int,
    b: int,
    n_rho: int,
) -> QuasisimpleBounds:
    if a < 1 or b < 1 or gcd(a, b) != 1:
        raise PreconditionError("need coprime positive integers a, b")
    if n_rho < 1:
        raise PreconditionError("tube rank must be positive")
    threshold = n_rho * max_hinf_pairing(lattice, exceptional)
    if b <= threshold:
        raise PreconditionError(
            f"hypothesis b > {threshold} fails for b = {b} (rank {n_rho})"
        )
    p = p_bound(lattice, exceptional)
    center = Fraction(lattice.mu_of_pair(a, b), lattice.pairing)
    return QuasisimpleBounds(
        lower=center - p,
        center=center if n_rho == lattice.pairing else None,
        p=p,
    )


class TubeParams(Value):
    """Numeric parameters for a rank-<h0,hinf> tube achieving dimension gap d,
    with the ``GapCertificate`` of its slope."""

    __slots__ = (
        "a", "b", "rank", "k_used", "p", "d", "lower_bound", "threshold", "r", "epsilon",
        "certificate",
    )
    kind = "tube-params"

    @property
    def slope(self) -> Slope:
        return Slope.from_ratio(self.b, self.a)


def tube_parameters(
    lattice: K0Lattice,
    exceptional: ExceptionalSet,
    r: QuadIrrational,
    eps,
    d: int,
) -> TubeParams:
    """Choose the smallest k with k/<h0,hinf> - 2p >= d, run the gap search,
    and shrink the window toward r until the returned numerator clears the
    quasisimple threshold (larger denominators force larger numerators)."""
    eps = _check_window(r, eps)
    if d < 1:
        raise PreconditionError("dimension gap d must be at least 1")
    p = p_bound(lattice, exceptional)
    k = lattice.pairing * (d + 2 * p)
    threshold = lattice.pairing * max_hinf_pairing(lattice, exceptional)

    eps_i = eps
    for _ in range(MAX_SHRINK_ROUNDS):
        cert = gap_vector(lattice, r, eps_i, k)
        if cert.b > threshold:
            return TubeParams(
                a=cert.a,
                b=cert.b,
                rank=lattice.pairing,
                k_used=k,
                p=p,
                d=d,
                lower_bound=Fraction(cert.mu, lattice.pairing) - p,
                threshold=threshold,
                r=r,
                epsilon=eps,
                certificate=cert,
            )
        # shrink: any rational q in (b/a, r) yields a strictly tighter window
        s = Fraction(cert.b, cert.a)
        lo, _ = r.bracket_until(lambda lo, hi: lo > s, 1 << 8)
        eps_i = lo - s
    raise BudgetExhaustedError(
        f"threshold b > {threshold} not reached within {MAX_SHRINK_ROUNDS} rounds"
    )


def validate_tube_params(
    lattice: K0Lattice, exceptional: ExceptionalSet, tp: TubeParams
) -> list[str]:
    failures: list[str] = []
    p = p_bound(lattice, exceptional)
    if tp.p != p:
        failures.append(f"stored p = {tp.p}, recomputed {p}")
    if tp.rank != lattice.pairing:
        failures.append(f"rank {tp.rank} differs from pairing {lattice.pairing}")
    if tp.k_used < lattice.pairing * (tp.d + 2 * p):
        failures.append("k_used does not achieve the requested gap")
    threshold = lattice.pairing * max_hinf_pairing(lattice, exceptional)
    if tp.threshold != threshold:
        failures.append(f"stored threshold = {tp.threshold}, recomputed {threshold}")
    if tp.b <= threshold:
        failures.append(f"b = {tp.b} does not clear the threshold {threshold}")
    if gcd(tp.a, tp.b) != 1:
        failures.append("slope coefficients are not coprime")
    if not (tp.a or tp.b):
        failures.append("pair (0,0) has no slope")
    elif not _in_window_below(tp.r, tp.epsilon, tp.b, tp.a):
        failures.append(f"slope {slope_text(tp.b, tp.a)} is not in (r - eps, r)")
    expected_lower = Fraction(lattice.mu_of_pair(tp.a, tp.b), lattice.pairing) - p
    if tp.lower_bound != expected_lower:
        failures.append("lower bound arithmetic is wrong")
    cert = tp.certificate
    if (cert.a, cert.b) != (tp.a, tp.b):
        failures.append(f"certificate pair ({cert.a},{cert.b}) is not the pair ({tp.a},{tp.b})")
    if cert.k != tp.k_used:
        failures.append(f"certificate k = {cert.k} is not k_used = {tp.k_used}")
    if cert.r != tp.r:
        failures.append(f"certificate r = {cert.r} is not r = {tp.r}")
    failures.extend(validate_gap_certificate(lattice, cert))
    return failures


# ---------------------------------------------------------------------------
# Certificate wire format
# ---------------------------------------------------------------------------


def _witness_from_json(w) -> tuple[int, int, int, str]:
    # a JSON number without a fraction is read as an int; anything else
    # goes through parse_int, a then b then mu, for its error message
    a = x if type(x := w["a"]) is int else parse_int(x)
    b = x if type(x := w["b"]) is int else parse_int(x)
    m = x if type(x := w["mu"]) is int else parse_int(x)
    slope = w["slope"]
    # the reduced text of b/a is its own normal form, so only another
    # spelling (or the undefined 0/0 row) needs Slope.parse
    if not ((a or b) and slope == slope_text(b, a)):
        slope = str(Slope.parse(slope))
    return a, b, m, slope


def _rows_from_json(rows):
    return rows if type(rows) is BudgetScan else tuple(map(_witness_from_json, rows))


def _weights_from_json(weights) -> tuple[int, int]:
    w0, w1 = weights  # exactly two
    return parse_int(w0), parse_int(w1)


def _to_json(value: GapCertificate | TubeParams) -> dict:
    doc = {"kind": value.kind, "slope": str(value.slope)}
    for name, write, _ in _KINDS[value.kind][3]:
        field = getattr(value, name)
        doc[name] = field if write is None else write(field)
    return doc


def _from_json(kind: str, data) -> GapCertificate | TubeParams:
    cls, full_name, short_name, fields = _KINDS[kind]
    try:
        if data.get("kind") != kind:
            raise SpecFormatError(f"not a {full_name}: {data.get('kind')!r}")
        return cls(**{name: read(data[name]) for name, _, read in fields})
    except (KeyError, TypeError, ValueError, IndexError, AttributeError) as exc:
        raise SpecFormatError(f"malformed {short_name}: {exc}") from exc


def _ints(*names) -> tuple:
    return tuple((name, None, parse_int) for name in names)


# Each certificate kind once: its class, the names its errors give its
# document, and its wire fields apart from "kind" and the derived "slope",
# each as (name, writer, reader) in the order they are read.  ``_ints``
# fields are written as they are, and a field written by ``_to_json`` holds
# a certificate of its own.
_KINDS = {
    GapCertificate.kind: (GapCertificate, "gap-vector certificate", "gap certificate", (
        ("witnesses", Rows, _rows_from_json),
        ("mu_weights", list, _weights_from_json),
        ("r", str, parse_quad_irrational),
        ("epsilon", frac_to_str, parse_frac),
        *_ints("k", "a", "b", "mu", "budget"),
    )),
    TubeParams.kind: (TubeParams, "tube-params document", "tube-params document", (
        *_ints("a", "b", "rank", "k_used", "p", "d"),
        ("lower_bound", frac_to_str, parse_frac),
        *_ints("threshold"),
        ("r", str, parse_quad_irrational),
        ("epsilon", frac_to_str, parse_frac),
        # read through the module name, so that a wrapper put there also
        # sees a tube's certificate being read
        ("certificate", _to_json, lambda data: gap_certificate_from_json(data)),
    )),
}


def gap_certificate_to_json(cert: GapCertificate) -> dict:
    return _to_json(cert)


def gap_certificate_from_json(data: dict) -> GapCertificate:
    """Read a ``gap-vector`` document; malformed input is a SpecFormatError.

    The witness rows are read one by one: a witness slope already in the
    reduced text of b/a is kept as it is, and any other spelling goes
    through ``Slope.parse`` and is stored normalised, so
    ``validate_gap_certificate`` judges the value, not the spelling.  A
    malformed row raises the first bad row's error.  A ``BudgetScan`` in
    place of the rows, which ``certificate_from_canonical_text`` puts there,
    is kept as it is.
    """
    return _from_json(GapCertificate.kind, data)


def tube_params_to_json(tp: TubeParams) -> dict:
    return _to_json(tp)


def tube_params_from_json(data: dict) -> TubeParams:
    return _from_json(TubeParams.kind, data)


def _stored_slope_failures(where: str, data: dict, cert) -> list[str]:
    """A failure if the ``slope`` text of ``data`` is not the slope of the
    pair of ``cert``, compared by value; a text that is no slope is
    malformed."""
    stored, a, b = Slope.parse(data.get("slope")), cert.a, cert.b
    if not (a or b):
        return [f"{where}stored slope {stored} is given for (0,0), which has no slope"]
    if stored != Slope.from_ratio(b, a):
        return [f"{where}stored slope {stored} is not the slope {slope_text(b, a)} of ({a},{b})"]
    return []


def certificate_from_json(data) -> tuple[GapCertificate | TubeParams, list[str]]:
    """The certificate of a ``gap-vector`` or ``tube-params`` document, and
    a failure for each stored ``slope`` that is not the slope of its own
    pair: the readers drop the stored slopes, which a certificate derives
    from its pair.  The top slope comes before that of a tube's certificate.
    """
    kind = data.get("kind") if isinstance(data, dict) else None
    if type(kind) is not str or kind not in _KINDS:
        raise SpecFormatError(f"unknown certificate kind {kind!r}")
    value = _from_json(kind, data)
    slopes = [("", data, value)] + [
        (f"{name} ", data[name], getattr(value, name))
        for name, write, _ in _KINDS[kind][3]
        if write is _to_json
    ]
    return value, [f for slope in slopes for f in _stored_slope_failures(*slope)]


# the fewest bytes of one canonical witness row and its separator, at depth
# 1; deeper rows are longer
_ROW_BYTES = 75
_WITNESSES = '"witnesses": ['


def certificate_from_canonical_text(text: str) -> GapCertificate | TubeParams | None:
    """The certificate whose canonical document is ``text``, with the budget
    scan of its own weights and budget as witnesses; None otherwise.

    The first ``"witnesses": [`` array is cut out up to the "]" at its
    line's indent, ``json.loads`` reads the header left, and the value is
    written again with its scan: equal bytes mean that ``json.loads(text)``
    is exactly its document, so a wrong cut can only fail the comparison.
    Before it is written the scan is bounded by the text: the weights are
    ints >= 1, 0 <= budget <= len(text), and there are at most
    len(text) // _ROW_BYTES rows.  Any error on the way gives None.
    """
    try:
        start = text.index(_WITNESSES)
        pad = text[text.rfind("\n", 0, start) + 1 : start]
        end = text.index("\n" + pad + "]", start)
        data = json.loads(text[: start + len(_WITNESSES)] + text[end + len(pad) + 1 :])
        gap = data["certificate"] if "certificate" in data else data
        w0, w1 = gap["mu_weights"]
        budget, most = gap["budget"], len(text) // _ROW_BYTES
        if not (type(w0) is type(w1) is type(budget) is int and min(w0, w1) >= 1):
            return None
        gap["witnesses"] = scan = BudgetScan(w0, w1, budget)
        # each a >= 1 has the row b = 0, so budget // w0 <= most bounds len's sum
        if not 0 <= budget <= len(text) or budget // w0 > most or len(scan) > most:
            return None
        # a document that its writer spells again has the slopes of its pairs
        value, _ = certificate_from_json(data)
        again = dumps_canonical(_to_json(value))
    except (TubelatError, ArithmeticError, LookupError, RecursionError, TypeError, ValueError):
        return None
    return value if again == text else None
