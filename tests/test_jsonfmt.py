"""``jsonfmt.dumps`` against its oracle, ``json.dumps(doc, indent=2)``."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumrep.jsonfmt import IntRows, dumps

big_ints = st.integers(-(2**100), 2**100) | st.integers()
floats = st.floats(allow_nan=True, allow_infinity=True, allow_subnormal=True) | st.sampled_from(
    [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.nan, math.inf, -math.inf]
)
# text draws non-ASCII and control characters as well as plain ones
texts = st.text(max_size=8)
leaves = st.none() | st.booleans() | big_ints | floats | texts


@st.composite
def int_rows(draw):
    """Lists of int lists or tuples, equal-width or ragged, bools mixed in."""
    item = big_ints | st.booleans() if draw(st.booleans()) else big_ints
    if draw(st.booleans()):
        width = draw(st.integers(0, 4))
        row = st.lists(item, min_size=width, max_size=width)
    else:
        row = st.lists(item, max_size=4)
    rows = draw(st.lists(row | row.map(tuple), max_size=6))
    return rows if draw(st.booleans()) else tuple(rows)


flat_lists = (
    st.lists(big_ints)
    | st.lists(big_ints | st.booleans())
    | st.lists(floats)
    | st.lists(st.floats(allow_nan=False, allow_infinity=False))
    | st.lists(texts)
    | st.lists(big_ints | floats)
    | st.lists(leaves)
)

documents = st.recursive(
    leaves | flat_lists | int_rows(),
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(texts, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=300)
@given(documents)
def test_matches_json_dumps_indent_2(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [
    {},
    [],
    [[], []],
    {"a": {}, "b": [[]], "c": ()},
    [[1, 2], [3, 4], [2**64 + 1, -(2**70)]],
    [[1, True], [2, 3]],
    [(1, 2), [3, 4]],
    [1, 2.0, True, None, "x"],
    [math.nan, 1.0],
    [[1.5, 2.5], [3.5, 4.5]],
    {"é\x01\t": ["☃\n", "\x7f", "\ud800"]},
])
def test_edge_documents(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("doc", [{"a": {1, 2}}, [b"bytes"], {(1, 2): 3}, [[1, object()]]])
def test_unsupported_types_raise(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps(doc)


def test_non_str_keys_raise():
    with pytest.raises(TypeError, match="keys must be str"):
        dumps({"a": {1: 2}})


@settings(max_examples=200)
@given(st.integers(1, 4).flatmap(
    lambda width: st.lists(st.lists(big_ints, min_size=width, max_size=width), min_size=1)))
def test_int_rows_held_flat_match_the_list_of_rows(rows):
    flat = IntRows(tuple(v for row in rows for v in row), len(rows[0]))
    assert dumps({"rows": flat, "n": 1}) == json.dumps({"rows": rows, "n": 1}, indent=2)


@pytest.mark.parametrize("rows", [IntRows((), 2), IntRows((1, 2.5), 2), IntRows((1, True), 2)])
def test_int_rows_hold_one_or_more_rows_of_exact_ints(rows):
    with pytest.raises(TypeError, match="exact ints"):
        dumps([rows])
