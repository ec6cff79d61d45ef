"""Exact quadratic irrationals ``(p + q*sqrt(d))/s``.

Every slope search in this package compares rationals against an irrational
cut ``r``.  Restricting ``r`` to quadratic irrationals makes each comparison
one integer computation, ``floor(n*r)`` by ``isqrt``, so the searches never
touch approximate arithmetic.  Rational *enclosures* of ``r`` are still
available, via integer square roots, for picking nearby rational window
endpoints; they are used only to choose parameters, never to decide an
ordering.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, isqrt

from .errors import ParameterDomainError, SpecFormatError
from .serialize import label
from .value import Value


# Trial division below takes at most sqrt(MAX_RADICAND) = 10**6 steps.
MAX_RADICAND = 10**12


def squarefree_part(d: int) -> tuple[int, int]:
    """Return (m, d0) with d = m^2 * d0 and d0 squarefree."""
    if d <= 0:
        raise ParameterDomainError(f"radicand must be positive, got {d}")
    if d > MAX_RADICAND:
        raise ParameterDomainError(f"radicand {d} exceeds {MAX_RADICAND}")
    m, d0 = 1, d
    f = 2
    while f * f <= d0:
        while d0 % (f * f) == 0:
            d0 //= f * f
            m *= f
        f += 1
    return m, d0


class QuadIrrational(Value):
    """The real number (p + q*sqrt(d))/s with q != 0, s > 0, d > 1 squarefree.

    The constraints force irrationality, so comparisons with rationals are
    always strict and decidable by integer arithmetic alone.  The constructor
    takes any integers p, q, d, s that meet them after normalising: a square
    factor of d moves into q, a negative s gives its sign to p and q, and
    the common divisor of p, q and s is cancelled.
    """

    __slots__ = ("p", "q", "d", "s")

    def __init__(self, p, q, d, s):
        if s == 0:
            raise ParameterDomainError("denominator s must be nonzero")
        if q == 0:
            raise ParameterDomainError("q = 0 would make the value rational")
        m, d0 = squarefree_part(d)
        q, d = q * m, d0
        if d == 1:
            raise ParameterDomainError("radicand reduces to a square; value is rational")
        if s < 0:
            p, q, s = -p, -q, -s
        g = gcd(gcd(abs(p), abs(q)), s)
        super().__init__(p // g, q // g, d, s // g)

    # -- ordering against exact rationals (integer arithmetic only) --------

    def floor_mul(self, n: int) -> int:
        """floor(n * self), exactly.  n*q*sqrt(d) is an integer only for n = 0,
        so its floor is isqrt((n*q)^2 * d), less one when n*q < 0."""
        nq = n * self.q
        root = isqrt(nq * nq * self.d)
        if nq < 0:
            root = -root - 1
        return (n * self.p + root) // self.s

    def cmp_fraction(self, t: Fraction | int) -> int:
        """Sign of (self - t); never 0 since self is irrational."""
        t = Fraction(t)
        return -1 if self.floor_mul(t.denominator) < t.numerator else 1

    def __gt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.cmp_fraction(other) > 0
        return NotImplemented

    def __lt__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.cmp_fraction(other) < 0
        return NotImplemented

    def __ge__(self, other):
        return self.__gt__(other)

    def __le__(self, other):
        return self.__lt__(other)

    # -- rational enclosures ------------------------------------------------

    def bracket(self, scale: int = 1 << 20) -> tuple[Fraction, Fraction]:
        """Rational lo < self < hi with hi - lo <= |q| / (scale * s)."""
        root_lo = Fraction(isqrt(self.d * scale * scale), scale)
        root_hi = root_lo + Fraction(1, scale)
        if self.q > 0:
            lo = (self.p + self.q * root_lo) / self.s
            hi = (self.p + self.q * root_hi) / self.s
        else:
            lo = (self.p + self.q * root_hi) / self.s
            hi = (self.p + self.q * root_lo) / self.s
        return lo, hi

    def bracket_until(self, done, scale: int = 2) -> tuple[Fraction, Fraction]:
        """The first ``bracket(scale * 4**j)``, j = 0, 1, ..., whose ends
        satisfy ``done(lo, hi)``; the widths shrink to 0, so any condition
        that holds on every narrow enough enclosure ends the loop."""
        while True:
            lo, hi = self.bracket(scale)
            if done(lo, hi):
                return lo, hi
            scale *= 4

    def distance_lower_bound(self, t: Fraction) -> Fraction:
        """A positive rational in [d/2, d) for d = |self - t|, certified.

        Callers rely on both ends: ``search.delta_for`` skips every t at
        least twice as far from self as the nearest, which is sound only
        because no bound reaches d and none falls below d/2.
        """
        t = Fraction(t)

        def outside(lo, hi):  # distance from t to [lo, hi]; <= 0 inside it
            return lo - t if t < lo else t - hi

        lo, hi = self.bracket_until(lambda lo, hi: outside(lo, hi) >= hi - lo)
        return outside(lo, hi)

    def __str__(self) -> str:
        return f"({self.p}{self.q:+d}*sqrt({self.d}))/{self.s}"


_SQRT_COLON = re.compile(r"^sqrt:([0-9]+)$")
_SQRT_CALL = re.compile(r"^sqrt\(([0-9]+)\)$")
_SQRT_OVER = re.compile(r"^sqrt\(([0-9]+)\)/([0-9]+)$")
_GENERAL = re.compile(
    r"^\(\s*(-?[0-9]+)\s*([+-])\s*(?:([0-9]+)\s*\*\s*)?sqrt\(([0-9]+)\)\s*\)\s*(?:/\s*([0-9]+))?$"
)


def parse_quad_irrational(text: str) -> QuadIrrational:
    """Parse the wire forms ``sqrt:d``, ``sqrt(d)``, ``sqrt(d)/s`` and
    ``(p+q*sqrt(d))/s`` (the ``q*`` and ``/s`` parts optional)."""
    text = label(text).strip().replace(" ", "")
    try:
        m = _SQRT_COLON.match(text) or _SQRT_CALL.match(text)
        if m:
            return QuadIrrational(0, 1, int(m.group(1)), 1)
        m = _SQRT_OVER.match(text)
        if m:
            return QuadIrrational(0, 1, int(m.group(1)), int(m.group(2)))
        m = _GENERAL.match(text)
        if m:
            p = int(m.group(1))
            sign = -1 if m.group(2) == "-" else 1
            q = sign * int(m.group(3) or "1")
            d = int(m.group(4))
            s = int(m.group(5) or "1")
            return QuadIrrational(p, q, d, s)
    except ValueError:  # an integer past the digit limit
        pass
    raise SpecFormatError(f"cannot parse quadratic irrational {text!r}")
