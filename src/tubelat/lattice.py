"""Exact arithmetic on the Grothendieck lattice K0 = Z^n.

The bilinear form <x,y> = x^T E y comes from ``EulerData``; its radical is
spanned by a canonical pair of vectors h0, hinf normalised by their last two
coordinates ((1,0) for h0, (1,1) for hinf).  The slope of a vector is the
ratio -<h0,x>/<hinf,x>, an element of Q union {infinity}, and mu(x) = sum of
coordinates is the total-dimension map (the unique linear map restricting to
dim(M) on dimension vectors, coordinates counting composition factors).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul

from . import linalg
from .algebra import AlgebraSpec, EulerData, derive_path_basis, euler_data
from .errors import (
    ConsistencyError,
    PreconditionError,
    SpecFormatError,
    UndefinedSlopeError,
    UnsupportedFormError,
)
from .serialize import label, parse_frac
from .value import Value

DimVector = tuple[int, ...]


def vec_add(x: DimVector, y: DimVector) -> DimVector:
    return tuple(a + b for a, b in zip(x, y))


def vec_sub(x: DimVector, y: DimVector) -> DimVector:
    return tuple(a - b for a, b in zip(x, y))


def vec_scale(c: int, x: DimVector) -> DimVector:
    return tuple(c * a for a in x)


def mu(x) -> int:
    """Total dimension: the coordinate sum."""
    return sum(x)


def reduced_ratio(num: int, den: int) -> tuple[int, int]:
    """The slope num/den in lowest terms with a nonnegative denominator;
    projectively there is a single infinity, whose normal form is 1/0."""
    if num == 0 and den == 0:
        raise UndefinedSlopeError("0/0 is not a slope")
    if den == 0:
        return 1, 0
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def slope_text(num: int, den: int) -> str:
    """The wire text of the slope num/den: "inf", "n" or "n/d", reduced."""
    if den > 0:  # every pair in the cone: one gcd, no sign to fix
        g = gcd(num, den)
        return str(num // g) if den == g else f"{num // g}/{den // g}"
    n, d = reduced_ratio(num, den)
    if d == 0:
        return "inf"
    if d == 1:
        return str(n)
    return f"{n}/{d}"


class Slope(Value):
    """A reduced rational b/a or the symbol infinity (stored as 1/0)."""

    __slots__ = ("numerator", "denominator")

    @staticmethod
    def from_ratio(num: int, den: int) -> "Slope":
        return Slope(*reduced_ratio(num, den))

    @property
    def is_infinite(self) -> bool:
        return self.denominator == 0

    def as_fraction(self) -> Fraction:
        if self.is_infinite:
            raise UndefinedSlopeError("infinite slope has no rational value")
        return Fraction(self.numerator, self.denominator)

    def __lt__(self, other: "Slope") -> bool:
        if self.is_infinite:
            return False
        if other.is_infinite:
            return True
        return self.numerator * other.denominator < other.numerator * self.denominator

    def __le__(self, other: "Slope") -> bool:
        return self == other or self < other

    def __gt__(self, other: "Slope") -> bool:
        return other < self

    def __ge__(self, other: "Slope") -> bool:
        return other <= self

    def __str__(self) -> str:
        return slope_text(self.numerator, self.denominator)

    @staticmethod
    def parse(text: str) -> "Slope":
        text = label(text).strip()
        if text in ("inf", "infinity", "oo"):
            return Slope(1, 0)
        q = parse_frac(text)
        return Slope(q.numerator, q.denominator)


class RadicalBasis(Value):
    """The canonical pair of radical vectors and their pairing <h0, hinf>."""

    __slots__ = ("h0", "hinf", "pairing")


def radical_basis(euler: EulerData) -> RadicalBasis:
    """Derive h0, hinf from the kernel of the symmetrised form.

    The kernel must have rank 2 and project unimodularly onto the last two
    coordinates, where h0 restricts to (1, 0) and hinf to (1, 1); anything
    else is rejected as outside the supported family of forms.
    """
    n = len(euler.euler)
    sym = [
        [Fraction(euler.euler[i][j] + euler.euler[j][i]) for j in range(n)]
        for i in range(n)
    ]
    kernel = [[vec.get(j, linalg.ZERO) for j in range(n)] for vec in linalg.nullspace(sym, n)]
    if len(kernel) != 2:
        raise UnsupportedFormError(
            f"radical has rank {len(kernel)}, expected 2"
        )

    def solve_tail(tail: tuple[int, int]) -> DimVector:
        system = [
            [kernel[0][n - 2], kernel[1][n - 2]],
            [kernel[0][n - 1], kernel[1][n - 1]],
        ]
        coeffs = linalg.solve(system, [Fraction(tail[0]), Fraction(tail[1])], 2)
        if coeffs is None:
            raise UnsupportedFormError(
                "radical does not project onto the last two coordinates"
            )
        vec = [
            coeffs[0] * kernel[0][i] + coeffs[1] * kernel[1][i] for i in range(n)
        ]
        out = []
        for x in vec:
            if x.denominator != 1:
                raise UnsupportedFormError("normalised radical vector is not integral")
            out.append(x.numerator)
        return tuple(out)

    h0 = solve_tail((1, 0))
    hinf = solve_tail((1, 1))
    pairing = euler.bilinear(h0, hinf)
    if pairing <= 0:
        raise UnsupportedFormError(f"pairing <h0, hinf> = {pairing} is not positive")
    return RadicalBasis(h0=h0, hinf=hinf, pairing=pairing)


class K0Lattice(Value):
    """Bundles the Euler form (``EulerData``) with the radical basis; all
    methods are pure."""

    __slots__ = ("euler", "h0", "hinf", "pairing")

    @staticmethod
    def for_spec(spec: AlgebraSpec) -> "K0Lattice":
        ed = euler_data(spec, derive_path_basis(spec))
        rad = radical_basis(ed)
        return K0Lattice(ed, rad.h0, rad.hinf, rad.pairing)

    @property
    def rank(self) -> int:
        return len(self.euler.euler)

    def check_length(self, x) -> None:
        if len(x) != self.rank:
            raise SpecFormatError(f"vector must have length {self.rank}")

    def bilinear(self, x, y) -> int:
        return self.euler.bilinear(x, y)

    def quadratic(self, x) -> int:
        return self.euler.quadratic(x)

    def radical_pairings(self, ys):
        """(y as a tuple, <h0, y>, <hinf, y>) for each y: a dot product of y
        with each of the covectors h0^T E and hinf^T E, worked out once."""
        columns = list(zip(*self.euler.euler))
        c0, cinf = ([sum(map(mul, x, col)) for col in columns] for x in (self.h0, self.hinf))
        for y in map(tuple, ys):
            self.check_length(y)
            yield y, sum(map(mul, c0, y)), sum(map(mul, cinf, y))

    def mu(self, x) -> int:
        self.check_length(x)
        return mu(x)

    @property
    def mu_h0(self) -> int:
        return mu(self.h0)

    @property
    def mu_hinf(self) -> int:
        return mu(self.hinf)

    def slope(self, x) -> Slope:
        """-<h0,x>/<hinf,x> reduced; zero denominator means infinite slope."""
        ((x, num, den),) = self.radical_pairings([x])
        if num == 0 and den == 0:
            raise UndefinedSlopeError(f"both radical pairings vanish on {x}")
        return Slope.from_ratio(-num, den)

    def radical_combination(self, a: int, b: int) -> DimVector:
        return vec_add(vec_scale(a, self.h0), vec_scale(b, self.hinf))

    def mu_of_pair(self, a: int, b: int) -> int:
        return a * self.mu_h0 + b * self.mu_hinf

    def radical_decompose(self, x) -> tuple[int, int]:
        """Coefficients (a, b) with x = a*h0 + b*hinf, read off the last two
        coordinates; requires x to be a radical vector."""
        self.check_length(x)
        if self.quadratic(x) != 0:
            raise PreconditionError(f"{tuple(x)} is not radical (chi != 0)")
        a = x[-2] - x[-1]
        b = x[-1]
        if self.radical_combination(a, b) != tuple(x):
            raise ConsistencyError(
                f"radical vector {tuple(x)} is outside the integer span of h0, hinf"
            )
        return a, b
