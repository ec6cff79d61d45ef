"""Wire-format helpers.

All exact rationals travel as ``"p/q"`` strings (the ``/q`` part is omitted
for integers), dimension vectors as JSON integer arrays.  No floating point
is parsed or emitted anywhere.

Every output is written by ``dumps_canonical``, whose bytes are those of
``json.dumps(obj, sort_keys=True, indent=2)``.  It does not call that,
because on CPython 3.10-3.13 any ``indent`` forces the pure-Python encoder,
which spends most of the time of a large certificate.  A ``JSONEncoder``
without ``indent`` runs in C, and its item separator can carry the indent of
one depth.  So two shapes are given to C whole: a container whose values are
all scalars (str, int, bool, None), and a list of non-empty such dicts, the
witness rows.  The rows come out of one C call at the depth of their fields;
one ``str.replace`` of the row boundary ``},<newline><indent>{`` then puts
back the lines around each row's braces.  The boundary cannot occur inside
a row: a scalar never ends in ``}``, and an encoded string never holds a raw
newline, since JSON escapes every control character.  Everything else is
written by a short recursion with sorted keys.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from json.encoder import encode_basestring_ascii

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


_INDENT = "  "
# exact types, tested in C: a subclass only takes the slower recursion
_SCALARS = frozenset((str, int, bool, type(None)))
# str and int leaves, spelt as json spells them: every ``encode`` call builds a
# C encoder, and the recursion meets three such leaves per delta exception
_LEAVES = {str: encode_basestring_ascii, int: int.__repr__}


@lru_cache(maxsize=None)
def _encoder(depth: int) -> json.JSONEncoder:
    """C encoder whose items are separated by a newline and ``depth`` indents."""
    return json.JSONEncoder(sort_keys=True, separators=(",\n" + _INDENT * depth, ": "))


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    # int, bool, None and float keys are spelt as json spells them
    return _encoder(0).encode({key: None})[1:-7]


def _write(obj, depth: int) -> str:
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        return leaf(obj)
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        return _encoder(0).encode(obj)
    is_dict = isinstance(obj, dict)
    pad = _INDENT * depth
    inner = pad + _INDENT
    types = set(map(type, obj.values() if is_dict else obj))
    if types <= _SCALARS:
        text = _encoder(depth + 1).encode(obj)
        return text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1]
    if is_dict:
        items = sorted(obj.items())
        body = ",\n".join(inner + _key(k) + ": " + _write(v, depth + 1) for k, v in items)
        return "{\n" + body + "\n" + pad + "}"
    rows = types == {dict} and all(obj)
    if rows and set(map(type, chain.from_iterable(map(dict.values, obj)))) <= _SCALARS:
        deep = inner + _INDENT
        text = _encoder(depth + 2).encode(obj)
        boundary = "\n" + inner + "},\n" + inner + "{\n" + deep
        body = text[2:-2].replace("},\n" + deep + "{", boundary)
        return "[\n" + inner + "{\n" + deep + body + "\n" + inner + "}\n" + pad + "]"
    body = ",\n".join(inner + _write(v, depth + 1) for v in obj)
    return "[\n" + body + "\n" + pad + "]"


def dumps_canonical(obj) -> str:
    """Deterministic JSON used for every CLI output and stored certificate.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"``; the module docstring says how.
    """
    return _write(obj, 0) + "\n"
