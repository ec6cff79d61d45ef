import json
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tubelat import algebra, pp, reps
from tubelat import lattice as lattice_module
from tubelat import search
from tubelat.quadirr import QuadIrrational
from tubelat.search import (
    BudgetScan,
    gap_certificate_from_json,
    gap_certificate_to_json,
    gap_vector,
    tube_parameters,
    tube_params_from_json,
    tube_params_to_json,
)
from tubelat.errors import SpecFormatError
from tubelat.serialize import Rows, dumps_canonical, parse_frac


def ref_dumps_canonical(obj) -> str:
    """The writer as it was: the pure-Python encoder that ``indent`` selects."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


def list_form(doc):
    """The document with every ``Rows`` value replaced by its list of dicts."""
    if isinstance(doc, Rows):
        return list(doc)
    if isinstance(doc, dict):
        return {k: list_form(v) for k, v in doc.items()}
    if isinstance(doc, (list, tuple)):
        return [list_form(v) for v in doc]
    return doc


# strings that look like a row boundary, or that the encoder must escape
TRICKY = (
    "},\n    {",
    "},\n      {",
    "},",
    "}",
    "{",
    "\n",
    '"',
    "\\",
    "\x00\x1f\x7f",
    "été",
    "\U0001d11e",
    " ",
    "",
)

texts = st.sampled_from(TRICKY) | st.text(max_size=8)
scalars = st.sampled_from((None, True, False, 0, 1, -1, 10**40, -(10**40))) | st.integers() | texts
flat_dicts = st.dictionaries(texts, scalars, max_size=4)
rows = st.dictionaries(texts, scalars, min_size=1, max_size=4)


def containers(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=3).map(tuple)
        | st.dictionaries(texts, children, max_size=4)
        | st.dictionaries(st.integers(), children, max_size=3)
        # rows, with some of them empty, nested or not dicts at all
        | st.lists(flat_dicts | children, min_size=1, max_size=5)
        | st.lists(rows, min_size=1, max_size=5)
    )


leaves = scalars | flat_dicts | st.just([]) | st.just({})
documents = st.recursive(leaves, containers, max_leaves=10)


@given(doc=documents)
@settings(max_examples=1500, deadline=None)
def test_matches_indented_json_dumps(doc):
    assert dumps_canonical(doc) == ref_dumps_canonical(doc)


@pytest.mark.parametrize(
    "doc",
    [
        {},
        [],
        [[[{}]], {"a": [[], {}]}],
        {"witnesses": [{"a": 1, "b": "},\n    {"}, {"a": 2, "b": "x"}]},
        {"rows": [{"k": 1}, {}, {"k": 2}]},
        {"rows": [{"k": 1}, {"k": [1]}, 3]},
        {"exceptions": [{"a": 1, "b": 2, "perturbed": "1/2", "y": [0, 1, -1]}]},
        {"é\n\"": [True, 1, False, 0, None]},
        {1: [1], 2: {"b": "\\"}},
        (1, (2, 3), ()),
        Rows(()),
        {"witnesses": Rows(())},
        {"certificate": {"witnesses": Rows(BudgetScan(3, 5, 2))}},
        {"flag": True, "witnesses": Rows(((0, 1, 5, "inf"), (1, 0, 3, "0")))},
        [False, Rows(((1, 1, 8, "1"),)), None],
        # a wire tuple is written as the dict it reads as, values and all
        Rows(((1, True, 8, "1"),)),
        Rows(((1, 1, 8, True),)),
        {"witnesses": Rows(((1, 1, 8, None),))},
        {"witnesses": Rows(((1, 1, 8, 1),))},
    ],
)
def test_matches_indented_json_dumps_examples(doc):
    assert dumps_canonical(doc) == ref_dumps_canonical(list_form(doc))


@pytest.mark.parametrize(
    "doc",
    [
        Fraction(1, 2),
        {"a": {1, 2}},
        [[Fraction(1)]],
        {"rows": [{"a": Fraction(1)}]},
        {(1, 2): [1]},
    ],
)
def test_non_json_values_raise_type_error(doc):
    with pytest.raises(TypeError):
        ref_dumps_canonical(doc)
    with pytest.raises(TypeError):
        dumps_canonical(doc)


# ---------------------------------------------------------------------------
# Witness rows: one Rows value, against json.dumps of the list of dicts it
# reads as, whatever its source: the budget scan of a found certificate,
# written a block of rows with equal a at a time, or tuples read from the
# wire, written as that list
# ---------------------------------------------------------------------------


# the C(4, lambda) weights (6, 4) up to budget 300 give blocks with three or
# more reduced denominators (a = 4 has 4, 2 and 1 from b = 1, 2, 4)
scans = st.builds(BudgetScan, st.integers(1, 6), st.integers(1, 6), st.integers(-2, 40)) | st.builds(
    BudgetScan, st.just(6), st.just(4), st.integers(0, 300)
)
# runs of rows sharing an a, the runs in any order and an a coming back
# after another, so that no block of wire rows is reordered or merged
runs = st.lists(
    st.tuples(
        st.integers(-2, 3) | st.integers(),
        st.lists(st.tuples(st.integers(), st.integers(), texts), min_size=1, max_size=4),
    ),
    max_size=5,
).map(lambda runs: tuple((a, b, m, slope) for a, rest in runs for b, m, slope in rest))
wire_rows = runs | st.lists(
    st.tuples(st.integers(), st.integers(), st.integers(), texts), max_size=6
).map(tuple)


@given(source=scans | wire_rows, depth=st.integers(0, 3), sibling=scalars, in_list=st.booleans())
@example(source=BudgetScan(6, 4, 300), depth=1, sibling=0, in_list=False)
@example(source=((1, 0, 6, "0"), (2, 1, 16, "1/2"), (1, 1, 10, "1")), depth=0, sibling=0, in_list=False)
@settings(max_examples=300, deadline=None)
def test_rows_match_json_dumps_of_their_list_form(source, depth, sibling, in_list):
    doc = Rows(source)
    for _ in range(depth):
        doc = [sibling, doc] if in_list else {"witnesses": doc, "k": sibling}
    assert dumps_canonical(doc) == ref_dumps_canonical(list_form(doc))


@pytest.fixture(scope="module")
def certificates(lattice, exceptional_set):
    """(gap-search, tube-params) documents from the search, and the same
    documents read back from the wire: both row sources at depths 1 and 2."""
    r, eps = QuadIrrational(0, 1, 2, 1), Fraction(1, 10)
    found = (
        gap_certificate_to_json(gap_vector(lattice, r, eps, 50)),
        tube_params_to_json(tube_parameters(lattice, exceptional_set, r, eps, 1)),
    )
    read = (
        gap_certificate_to_json(gap_certificate_from_json(json.loads(dumps_canonical(found[0])))),
        tube_params_to_json(tube_params_from_json(json.loads(dumps_canonical(found[1])))),
    )
    return found + read


def test_certificate_documents_match_json_dumps(certificates):
    texts = [dumps_canonical(doc) for doc in certificates]
    for doc, text in zip(certificates, texts):
        assert text == ref_dumps_canonical(list_form(doc))
    assert texts[:2] == texts[2:]  # the scan and the wire tuples write alike
    assert isinstance(certificates[0]["witnesses"], Rows)
    assert isinstance(certificates[3]["certificate"]["witnesses"], Rows)


def test_writing_a_found_certificate_builds_no_slope_text(lattice, monkeypatch):
    """The rows of a scan are written by blocks: of the 14 839 rows at
    k = 500, none goes through ``slope_text``, whose one call spells the
    certificate's own slope."""
    calls = []
    slope_text = lattice_module.slope_text

    def counted(num, den):
        calls.append((num, den))
        return slope_text(num, den)

    monkeypatch.setattr(search, "slope_text", counted)
    monkeypatch.setattr(lattice_module, "slope_text", counted)
    cert = gap_vector(lattice, QuadIrrational(0, 1, 2, 1), Fraction(1, 10), 500)
    doc = gap_certificate_to_json(cert)
    text = dumps_canonical(doc)
    assert calls == [(cert.b, cert.a)]
    monkeypatch.undo()
    assert len(doc["witnesses"]) == 14839
    assert text == ref_dumps_canonical(list_form(doc))


@pytest.mark.parametrize(
    "doc",
    [
        Rows(((Fraction(1), 1, 8, "1"),)),
        Rows(((1, 1, 8, b"1"),)),
        {"witnesses": Rows(((1, 1, Fraction(8), "1"),))},
        {"witnesses": Rows(((1, 1, 8, Fraction(1)),))},
        {"witnesses": Rows(((1, 1, 8, {1}),))},
        {"witnesses": Rows(((1, 1j, 8, "1"),))},
        {"q": Fraction(1, 2), "witnesses": Rows(((1, 1, 8, "1"),))},
        [Rows(BudgetScan(3, 5, 20)), Fraction(1)],
    ],
)
def test_rows_never_coerce_a_value(doc):
    """A row value that json cannot spell raises, as json.dumps does, and
    so does a Fraction next to the rows."""
    with pytest.raises(TypeError):
        dumps_canonical(doc)


@pytest.mark.parametrize(
    "source",
    [
        ((1, 1, 8, "1", 0),),
        ((1, 1, 8),),
        ((1, 1, 8, "1"), (1, 2, 12, "2", 0)),
        ((1, 1, 8, "1"), (1, 2, 12)),
    ],
)
def test_rows_of_other_lengths_raise(source):
    """A wire row of more or fewer than four values raises, also when its
    block holds rows of four."""
    with pytest.raises(ValueError):
        dumps_canonical(Rows(source))


def test_rows_read_as_their_list_of_dicts():
    source = BudgetScan(3, 5, 11)
    rows, want = Rows(source), [
        {"a": a, "b": b, "mu": m, "slope": slope} for a, b, m, slope in source
    ]
    assert len(rows) == len(want) == 7
    assert list(rows) == want and rows == want and want == rows
    assert rows[0] == want[0] and rows[-1] == want[-1]
    assert rows[1:] == want[1:] and isinstance(rows[1:], list)
    assert rows + [want[0]] == want + [want[0]]
    assert rows == Rows(tuple(source)) and rows != want[1:] and rows != tuple(want)
    with pytest.raises(TypeError):
        rows[0] = want[0]
    with pytest.raises(TypeError):
        hash(rows)
    assert Rows(()) == [] and len(Rows(())) == 0


# The number grammar: ASCII whitespace around, an optional sign, ASCII
# digits, and an optional "/" with ASCII digits.  It is stated here by string
# methods and built up from its parts, not by the regex the code uses.  Texts
# near it: other scripts' digits and spaces, decimal points, exponents,
# underscores, inner whitespace.
ASCII_SPACE = " \t\n\r\f\v"


def in_grammar(text):
    body = text.strip(ASCII_SPACE)
    if body[:1] in ("+", "-"):
        body = body[1:]
    parts = body.split("/")
    return len(parts) <= 2 and all(part.isascii() and part.isdigit() for part in parts)


SPACES = st.text(st.sampled_from(ASCII_SPACE), max_size=2)
DIGITS = st.text(st.sampled_from("0123456789"), min_size=1, max_size=6)
NUMBERS = st.builds(
    "".join,
    st.tuples(SPACES, st.sampled_from(["", "+", "-"]), DIGITS, st.just("") | DIGITS.map("/".__add__), SPACES),
)
NEAR_NUMBERS = st.text(
    st.sampled_from([*"0123456789+-/._eE x\t\n\x1c", "\u0663", "\uff15", "\u2003", "\xa0"]), max_size=8
)
# one digit past the interpreter's int-to-str limit, which Fraction() refuses
LONG = "1" * (getattr(sys, "get_int_max_str_digits", lambda: 0)() + 1)


@settings(max_examples=200, deadline=None)
@given(text=NUMBERS | NEAR_NUMBERS)
@example(text="1e2")
@example(text="1_0")
@example(text="0.5")
@example(text="\u0663")
@example(text="\u20031")
@example(text="1 / 2")
@example(text=" -7/5\n")
@example(text="1/0")
@example(text=LONG)
@example(text="-1/" + LONG)
def test_numbers_follow_one_grammar(text):
    """A text of the grammar reads as ``Fraction(text)`` does; every other
    text, ``Fraction()`` accepting it or not, is ``spec-format``."""
    try:
        value = Fraction(text)
    except (ValueError, ZeroDivisionError):
        value = None
    if in_grammar(text) and value is not None:
        assert parse_frac(text) == value
    else:
        with pytest.raises(SpecFormatError):
            parse_frac(text)


SQRT2 = QuadIrrational(0, 1, 2, 1)


@pytest.mark.parametrize(
    "call",
    [
        lambda spec, lat: algebra.build_c4(0.5),
        lambda spec, lat: reps.make_representation(spec, (1, 1, 2, 1, 1, 0), {"a12": [["1e2"], [1]]}),
        lambda spec, lat: reps.make_representation(spec, (1, 1, 2, 1, 1, 0), {"a12": [[1], ["0.5"]]}),
        lambda spec, lat: reps.submodule_closure(reps.simple(spec, 2), [(2, (1.5,))]),
        lambda spec, lat: pp.make_formula(spec, 1, (2,), (2,), (((("2.5", ()),),),)),
        lambda spec, lat: gap_vector(lat, SQRT2, 0.1, 5),
        lambda spec, lat: gap_vector(lat, SQRT2, True, 5),
    ],
    ids=["build_c4-float", "rep-exponent", "rep-decimal", "submodule-float", "formula-decimal",
         "eps-float", "eps-bool"],
)
def test_library_entry_points_read_numbers_by_the_grammar(spec, lattice, call):
    """The library's own entry points read a number as the wire and the
    command line do: a float, a bool or a text outside the grammar is
    ``spec-format``, never converted."""
    with pytest.raises(SpecFormatError):
        call(spec, lattice)

