"""The exceptional set: unit-norm vectors with vanishing last two coordinates.

Setting the last two coordinates to zero restricts the quadratic form to a
positive-definite form on the remaining coordinates (for the supported
algebras).  Writing that restriction as a weighted sum of squares of linear
forms, every solution of "form = 1" has each square term at most 1, which
yields certified per-coordinate bounds and hence a finite exhaustive box
search.  Every unit-norm vector then decomposes as a radical combination
plus an exceptional element.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import floor, isqrt

from .errors import ConsistencyError, PreconditionError, UnsupportedFormError
from .lattice import DimVector, K0Lattice, vec_scale, vec_sub
from .value import Value


class ExceptionalSet(Value):
    """All x with chi(x) = 1 and last two coordinates zero, in lexicographic
    order (a tuple of ``DimVector``), together with the certified coordinate
    bound."""

    __slots__ = ("elements", "bound")

    def __iter__(self):
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __contains__(self, x) -> bool:
        return tuple(x) in self.elements


def _sqrt_upper(q: Fraction) -> Fraction:
    """A rational upper bound for sqrt(q), within 1/1000 of it."""
    if q < 0:
        raise UnsupportedFormError("negative radicand")
    scale = 1000
    num, den = q.numerator, q.denominator
    return Fraction(isqrt(num * den * scale * scale) + 1, den * scale)


def _restricted_sos(lattice: K0Lattice) -> list[tuple[Fraction, list[Fraction]]]:
    """LDL^T decomposition of the form restricted to the head coordinates:
    chi(z,0,0) = sum_i w_i (z_i + sum_{j>i} c_ij z_j)^2 with every w_i > 0."""
    n = lattice.rank
    m = n - 2
    s = [
        [
            Fraction(lattice.euler.euler[i][j] + lattice.euler.euler[j][i], 2)
            for j in range(m)
        ]
        for i in range(m)
    ]
    terms: list[tuple[Fraction, list[Fraction]]] = []
    for i in range(m):
        w = s[i][i]
        if w <= 0:
            raise UnsupportedFormError(
                "restricted form is not positive definite; "
                "no certified coordinate bound for this shape"
            )
        coeffs = [s[i][j] / w for j in range(i + 1, m)]
        terms.append((w, coeffs))
        for a in range(i + 1, m):
            for b in range(i + 1, m):
                s[a][b] -= s[i][a] * s[i][b] / w
    return terms


def coordinate_bound(lattice: K0Lattice) -> int:
    """An integer b with |x_i| <= b for every exceptional element, derived
    from the sum-of-squares shape (each term of a sum of nonnegative terms
    equal to 1 is itself at most 1)."""
    terms = _restricted_sos(lattice)
    m = len(terms)
    bounds = [0] * m
    for i in range(m - 1, -1, -1):
        w, coeffs = terms[i]
        reach = _sqrt_upper(1 / w)
        reach += sum(abs(c) * bounds[i + 1 + k] for k, c in enumerate(coeffs))
        bounds[i] = floor(reach)
    return max(bounds) if bounds else 0


def enumerate_exceptional(lattice: K0Lattice) -> ExceptionalSet:
    """Exhaustive scan of the box [-b, b]^(n-2) x {0} x {0}, lexicographic."""
    b = coordinate_bound(lattice)
    n = lattice.rank
    elements = []
    for head in product(range(-b, b + 1), repeat=n - 2):
        x = head + (0, 0)
        if lattice.quadratic(x) == 1:
            elements.append(x)
    return ExceptionalSet(elements=tuple(elements), bound=b)


def unit_decompose(
    lattice: K0Lattice,
    x,
    exceptional: ExceptionalSet,
) -> tuple[int, int, DimVector]:
    """Write a unit-norm vector as a*h0 + b*hinf + y with y exceptional."""
    lattice.check_length(x)
    x = tuple(x)
    if lattice.quadratic(x) != 1:
        raise PreconditionError(f"chi({x}) != 1")
    a = x[-2] - x[-1]
    b = x[-1]
    y = vec_sub(vec_sub(x, vec_scale(a, lattice.h0)), vec_scale(b, lattice.hinf))
    if y not in exceptional:
        raise ConsistencyError(
            f"residue {y} of {x} is not in the exceptional set"
        )
    return a, b, y
