"""Wire-format helpers.

All exact rationals travel as ``"p/q"`` strings (the ``/q`` part is omitted
for integers), dimension vectors as JSON integer arrays.  No floating point
is parsed or emitted anywhere.  Every input file is read by ``read`` from a
shape declared next to its writer, with no coercion: a leaf is read by
``parse_int``, ``parse_frac``, ``label`` or another function, and an error
names the path of the field.

Every output is written by ``dumps_canonical``, whose bytes are those of
``json.dumps(obj, sort_keys=True, indent=2)``.  It does not call that,
because on CPython 3.10-3.13 any ``indent`` forces the pure-Python encoder,
which spends most of the time of a large certificate.  A ``JSONEncoder``
without ``indent`` runs in C, and its item separator can carry the indent of
one depth, so a container whose values are all scalars (str, int, bool,
None) is given to C whole.  The two bulk tables are written by one block
writer, ``_write_blocks``, with no dict built: each block is a row of
constant pieces repeated, with each column of varying pieces put in place
by C iterators, so no Python frame runs per row.  The witness rows of a gap
certificate travel as one ``Rows`` value, which reads as the list of row
dicts; when its source is a budget scan, ``_scan_blocks`` feeds the writer
one block of rows with equal a at a time, each column sliced or repeated
from a short list, so that what it spells is bounded by the rows and not
by the budget.  Rows read from the wire are
written as the list of dicts they read as.  The exceptions of a delta
travel as their packed view, which ``_exception_blocks`` feeds to the
writer a fixed number of rows at a time, as the list of dicts {a, b,
perturbed, y}.  Everything else is written by a short recursion with sorted
keys.  All of them append their pieces to one list, and one ``"".join``
writes the whole document.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache, partial
from itertools import cycle, repeat
from json.encoder import encode_basestring_ascii
from math import gcd
from operator import floordiv

from .errors import SpecFormatError


def frac_to_str(q: Fraction) -> str:
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# A number as text, on the wire and the command line: ASCII whitespace
# around, an optional sign, ASCII digits and an optional "/" with ASCII
# digits; never a decimal point, exponent, underscore or other script's digit
# or space, as ``Fraction`` and ``int`` take.
_NUMBER = re.compile(r"\s*[+-]?[0-9]+(?:/[0-9]+)?\s*", re.ASCII)


def parse_frac(text) -> Fraction:
    """Parse ``"p/q"`` or ``"p"`` (by ``_NUMBER``) or a JSON integer into an
    exact rational."""
    if isinstance(text, bool) or not isinstance(text, (int, Fraction, str)):
        raise SpecFormatError(f"not a rational: {text!r}")
    if isinstance(text, str) and not _NUMBER.fullmatch(text):
        raise SpecFormatError(f"malformed rational {text!r}")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:  # x/0, or past the digit limit
        raise SpecFormatError(f"malformed rational {text!r}") from exc


def parse_int(value) -> int:
    """Accept a JSON integer only: no bool, float or string."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"not an integer: {value!r}")
    return value


def label(value) -> str:
    """Accept a JSON string only."""
    if type(value) is not str:
        raise SpecFormatError(f"not a JSON string: {value!r:.80}")
    return value


def read(shape, value, where: str):
    """``value`` read by ``shape``: a dict is an object with those keys (one
    ending in "?" may be absent, others are ignored), or any keys if its key
    is ``str``; a one-item list is an array or ``Rows`` read into a tuple, a
    budget scan kept; a function reads a leaf.  An error names the path, as
    in ``algebra spec.arrows[0].label: not a JSON string: True``.  A leaf
    function that reads by ``read`` itself, as a tube's certificate is read,
    continues the outer path: ``tube-params document.certificate.k: ...``."""
    try:
        return _read(shape, value)
    except SpecFormatError as exc:
        error = SpecFormatError(f"{where}{getattr(exc, 'path', '')}: {exc}")
        error.unnamed = exc  # the error before ``where``, for a read around this one
        raise error from exc


def _read(shape, value):
    if callable(shape):
        return shape(value)
    if type(shape) is list:
        if hasattr(value, "blocks"):
            return value
        if not isinstance(value, (list, Rows)):
            raise SpecFormatError(f"not a JSON array: {value!r:.80}")
        try:
            return tuple(map(shape[0] if callable(shape[0]) else partial(_read, shape[0]), value))
        except SpecFormatError:
            for i, x in enumerate(value):  # again, to name the first bad item
                _at(i, shape[0], x)
            raise
    if type(value) is not dict:
        raise SpecFormatError(f"not a JSON object: {value!r:.80}")
    if str in shape:
        return {key: _at(key, shape[str], x) for key, x in value.items()}
    out = {}
    for key, item in shape.items():
        name = key.rstrip("?")
        if name in value:
            out[name] = _at(name, item, value[name])
        elif name == key:
            raise SpecFormatError(f"missing key {name!r}")
    return out


def _at(key, shape, value):
    try:
        return _read(shape, value)
    except SpecFormatError as exc:  # the path is spelt only here
        inner = getattr(exc, "unnamed", exc)  # a nested read's error goes on from its path
        inner.path = (f"[{key}]" if type(key) is int else f".{key}") + getattr(inner, "path", "")
        if inner is exc:
            raise
        raise inner from None


def parse_int_vector(text: str, length: int | None = None) -> tuple[int, ...]:
    """Parse a JSON integer array given as text."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # ValueError: also the int digit limit
        raise SpecFormatError(f"malformed vector {text!r}") from exc
    vector = read([parse_int], data, "vector")
    if length is not None and len(vector) != length:
        raise SpecFormatError(f"vector has length {len(vector)}, expected {length}")
    return vector


_INDENT = "  "
# exact types, tested in C: a subclass only takes the slower recursion
_SCALARS = frozenset((str, int, bool, type(None)))
# str and int leaves, spelt as json spells them, since every ``encode`` call
# builds a C encoder: the values of a document's header, and of any dict or
# list that also holds a container
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


class Rows:
    """Read-only witness rows for a document.  ``source`` holds one tuple
    (a, b, mu, slope) per row, or is a budget scan; the rows read as the
    list of dicts with those keys (``len``, iteration, indexing, slicing,
    ``+`` and ``==`` with a list), and iterating builds each dict afresh.
    A row of another length raises ValueError.  A budget scan is written a
    block of equal a at a time, and wire tuples as their list of dicts."""

    __slots__ = ("_source",)
    KEYS = ("a", "b", "mu", "slope")  # sorted, as the writer writes them

    def __init__(self, source):
        self._source = source

    def __len__(self) -> int:
        return len(self._source)

    def __iter__(self):
        return (dict(zip(self.KEYS, row, strict=True)) for row in self._source)

    def __getitem__(self, index):
        return list(self)[index]

    def __add__(self, other: list) -> list:
        return list(self) + other

    def __eq__(self, other):
        return list(self) == list(other) if isinstance(other, (list, Rows)) else NotImplemented

    __hash__ = None  # unhashable, like the list it reads as


def _write_blocks(blocks, depth: int, out: list) -> None:
    """Append to ``out`` a table as json spells the list of its rows at
    ``depth``, one piece per block.  ``blocks`` yields, for each block, a
    row of constant pieces with ``None`` for each hole, the number of rows,
    and one column of pieces per hole.  The block is the row repeated, each
    column put in by one slice assignment, joined at once, so no Python
    frame runs per row.  Each row opens with the separator of rows, and the
    first row's "," opens the list."""
    start = len(out)
    for row, n, columns in blocks:
        block = row * n
        holes = [i for i, piece in enumerate(row) if piece is None]
        for hole, column in zip(holes, columns, strict=True):
            block[hole :: len(row)] = column
        out.append("".join(block))
    if len(out) == start:
        out.append("[]")
        return
    out[start] = "[" + out[start][1:]
    out.append("\n" + _INDENT * depth + "]")


def _scan_blocks(scan, depth: int):
    """The blocks of ``_write_blocks`` for the rows of the budget scan
    ``scan``, one per ``scan.blocks()``.  A row is five pieces: the opening
    up to the b key (a included), b, the mu key and mu with the slope key
    and quote, and the slope as a numerator and a tail that closes the row.
    Each column is a slice or a repeat of a short list: b is sliced from the
    texts up to ``budget // w1``, and mu from the texts of its residue rho =
    mu mod w1, built on first use over ``range(rho, budget + 1, w1)``.  No
    list has more entries than the a = 0 block plus one, and there is at
    most one list of mu texts per block, so a budget that no rows fill
    spells nothing.  For a >= 1, b/a reduces by g = gcd(b, a) to
    (b//g)/(a//g); g and the tail, one per distinct g, repeat with period
    a, so they are computed over one period, and the numerator is spelt
    from the b texts.  For a = 0 the slope is "inf"."""
    inner = _INDENT * (depth + 1)
    opening = ",\n" + inner + "{\n" + inner + _INDENT + '"a": '  # with the separator of rows
    b_key, mu_key, slope_key = (",\n" + inner + _INDENT + f'"{k}": ' for k in Rows.KEYS[1:])
    close = '"\n' + inner + "}"
    w0, w1, budget = scan.w0, scan.w1, scan.budget
    b_texts = list(map(str, range(budget // w1 + 1)))
    mu_texts: dict[int, list[str]] = {}  # rho -> the texts of mu = rho, rho + w1, ...
    for a, bs in scan.blocks():
        i, rho = divmod(w0 * a, w1)  # mu = w0*a + w1*b is entry i + b of rho's texts
        if rho not in mu_texts:
            mu_texts[rho] = [mu_key + m + slope_key + '"' for m in map(str, range(rho, budget + 1, w1))]
        n = len(bs)
        columns = [b_texts[bs.start : bs.stop], mu_texts[rho][i + bs.start : i + bs.stop]]
        row = [opening + str(a) + b_key, None, None, "inf" + close]
        if a:
            gs = list(map(gcd, range(min(a, n)), repeat(a)))  # bs starts at 0; one period
            tails = {g: ("" if g == a else "/" + str(a // g)) + close for g in set(gs)}
            period, (repeats, rest) = list(map(tails.__getitem__, gs)), divmod(n, len(gs))
            columns += map(b_texts.__getitem__, map(floordiv, bs, cycle(gs))), period * repeats + period[:rest]
            row[3:] = None, None
        yield row, n, columns


# delta rows per block; each block is joined at once, so only one block's
# pieces are alive at a time
_EXCEPTION_BLOCK = 4096


def _exception_blocks(view, depth: int):
    """The blocks of ``_write_blocks`` for the packed exceptions of a delta
    (``search.ExceptionRows``) as the dicts {a, b, perturbed, y} of its
    rows, ``_EXCEPTION_BLOCK`` rows at a time.  A row is eight pieces: the
    opening up to the a key, a, the b key, b, the perturbed key and quote,
    the numerator of the reduced perturbed slope, "/" and its denominator
    unless that is 1, and the closing quote with the y key, y and the row's
    close, one constant per y.  A block's columns come from one ``zip``, and
    num/den reduces by one pass of ``gcd`` and two of ``floordiv``."""
    inner = _INDENT * (depth + 1)
    opening = ",\n" + inner + "{\n" + inner + _INDENT + '"a": '  # with the separator of rows
    b_key, perturbed_key, y_key = (",\n" + inner + _INDENT + f'"{k}": ' for k in ("b", "perturbed", "y"))
    row = [opening, None, b_key, None, perturbed_key + '"', None, None, None]
    y_tails = []
    for y in view.ys:
        text: list[str] = []
        _write(list(y), depth + 2, text)
        y_tails.append('"' + y_key + "".join(text) + "\n" + inner + "}")
    for i in range(0, len(view.rows), _EXCEPTION_BLOCK):
        a, b, k, num, den = zip(*view.rows[i : i + _EXCEPTION_BLOCK])
        gs = list(map(gcd, num, den))
        dens = list(map(floordiv, den, gs))  # reduced
        den_tails = {m: "" if m == 1 else "/" + str(m) for m in set(dens)}
        nums, den_texts = map(str, map(floordiv, num, gs)), map(den_tails.__getitem__, dens)
        yield row, len(a), (map(str, a), map(str, b), nums, den_texts, map(y_tails.__getitem__, k))


def _write(obj, depth: int, out: list) -> None:
    """Append to ``out`` the pieces of ``obj`` as json spells it at ``depth``."""
    leaf = _LEAVES.get(type(obj))
    if leaf is not None:
        out.append(leaf(obj))
        return
    if type(obj) is Rows:
        if hasattr(obj._source, "blocks"):  # a budget scan
            _write_blocks(_scan_blocks(obj._source, depth), depth, out)
            return
        obj = list(obj)  # wire tuples: the list of dicts they read as
    elif hasattr(obj, "ys"):  # the packed exceptions of a delta
        _write_blocks(_exception_blocks(obj, depth), depth, out)
        return
    if not isinstance(obj, (dict, list, tuple)) or not obj:
        out.append(_encoder(0).encode(obj))
        return
    is_dict = isinstance(obj, dict)
    pad = _INDENT * depth
    inner = pad + _INDENT
    if set(map(type, obj.values() if is_dict else obj)) <= _SCALARS:
        text = _encoder(depth + 1).encode(obj)
        out.append(text[0] + "\n" + inner + text[1:-1] + "\n" + pad + text[-1])
        return
    sep = ("{" if is_dict else "[") + "\n" + inner
    for item in sorted(obj.items()) if is_dict else obj:
        if is_dict:
            key, item = item
            sep += _key(key) + ": "
        out.append(sep)
        _write(item, depth + 1, out)
        sep = ",\n" + inner
    out.append("\n" + pad + ("}" if is_dict else "]"))


def dumps_canonical(obj) -> str:
    """Deterministic JSON used for every CLI output and stored certificate.

    The bytes are those of ``json.dumps(obj, sort_keys=True, indent=2,
    ensure_ascii=True) + "\\n"``; the module docstring says how.  Every
    piece goes into one list, joined once.
    """
    out: list[str] = []
    _write(obj, 0, out)
    out.append("\n")
    return "".join(out)
