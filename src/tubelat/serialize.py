"""Wire-format helpers.

All exact rationals travel as ``"p/q"`` strings (the ``/q`` part is omitted
for integers), dimension vectors as JSON integer arrays.  No floating point
is parsed or emitted anywhere.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import SpecFormatError


def frac_to_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def parse_frac(text) -> Fraction:
    """Parse ``"p/q"``, ``"p"`` or a JSON integer into an exact rational."""
    if isinstance(text, bool):
        raise SpecFormatError(f"not a rational: {text!r}")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, Fraction):
        return text
    if not isinstance(text, str):
        raise SpecFormatError(f"not a rational: {text!r}")
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise SpecFormatError(f"malformed rational {text!r}") from exc


def parse_int(value) -> int:
    """Accept a JSON integer only: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"not an integer: {value!r}")
    return value


def parse_int_vector(text, length: int | None = None) -> tuple[int, ...]:
    """Parse a JSON integer array (given as text or list) into a tuple."""
    if isinstance(text, str):
        try:
            data = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise SpecFormatError(f"malformed vector {text!r}") from exc
    else:
        data = text
    if not isinstance(data, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in data
    ):
        raise SpecFormatError(f"vector must be a JSON integer array, got {text!r}")
    if length is not None and len(data) != length:
        raise SpecFormatError(f"vector has length {len(data)}, expected {length}")
    return tuple(data)


def dumps_canonical(obj) -> str:
    """Deterministic JSON used for every CLI output and stored certificate."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"
