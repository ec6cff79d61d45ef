import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tubelat.serialize import dumps_canonical


def ref_dumps_canonical(obj) -> str:
    """The writer as it was: the pure-Python encoder that ``indent`` selects."""
    return json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n"


# strings that look like the row boundary the writer replaces, or that the
# encoder must escape
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
    ],
)
def test_matches_indented_json_dumps_examples(doc):
    assert dumps_canonical(doc) == ref_dumps_canonical(doc)


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
