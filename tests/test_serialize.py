"""Deterministic JSON/CSV serialization helpers."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qustat import ValidationError, matrix_from_json, matrix_to_json
from qustat.serialize import dump_csv, dump_json, format_float

from oracles import recursive_dump_json


def test_matrix_roundtrip():
    m = np.array([[1.0, 2.0 + 3.0j], [2.0 - 3.0j, -4.0]])
    doc = matrix_to_json(m)
    assert doc["dim"] == 2
    np.testing.assert_allclose(matrix_from_json(doc), m, atol=0.0)


def test_matrix_from_json_shape_check():
    with pytest.raises(ValidationError):
        matrix_from_json({"dim": 2, "re": [[1.0]], "im": [[0.0]]})


@settings(max_examples=200, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrips(x):
    assert float(format_float(x)) == x or (x == 0.0 and float(format_float(x)) == 0.0)


def test_format_float_normalizes_negative_zero():
    assert format_float(-0.0) == format_float(0.0)


def test_format_float_rejects_non_finite():
    with pytest.raises(ValidationError):
        format_float(float("nan"))
    with pytest.raises(ValidationError):
        format_float(float("inf"))


def test_dump_json_sorted_and_stable():
    doc = {"b": [1, 2.5], "a": {"y": True, "x": None}}
    text = dump_json(doc, indent=0)
    assert text.index('"a"') < text.index('"b"')
    assert dump_json(doc, indent=0) == text
    assert "\r" not in dump_json(doc, indent=2)


def test_dump_json_escapes_strings():
    text = dump_json({"s": 'a"b\\c\n'}, indent=0)
    assert '"a\\"b\\\\c\\u000a"' in text


# JSON documents without floats (the stdlib prints floats by repr, not with
# 17 digits) and without control characters (the stdlib writes \n, not \u000a).
_TEXT = st.text(st.characters(min_codepoint=0x20, blacklist_categories=("Cs",)), max_size=8)
_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_DOCS)
def test_dump_json_layout_matches_the_stdlib(doc):
    assert dump_json(doc, 2) == json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"
    assert dump_json(doc, 0) == json.dumps(
        doc, sort_keys=True, ensure_ascii=False, separators=(",", ": ")
    ) + "\n"


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=8))
def test_dump_json_floats_read_back_exactly(values):
    for indent in (0, 2):
        assert json.loads(dump_json(values, indent)) == values


_EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 0.1]
_FLOATS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(_EDGE_FLOATS)
_NUMPY_SCALARS = _FLOATS.map(np.float64) | st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)
_FLOAT_LISTS = st.lists(_FLOATS, max_size=6)
# documents with floats everywhere: plain and numpy scalars, float lists (empty,
# nested, as tuples) and lists that mix floats with other values
_FLOAT_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers() | _TEXT | _FLOATS | _NUMPY_SCALARS | _FLOAT_LISTS
    | _FLOAT_LISTS.map(tuple),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=4).map(tuple)
    | st.lists(_FLOAT_LISTS, max_size=4) | st.dictionaries(_TEXT, children, max_size=4),
    max_leaves=20,
)


@settings(max_examples=400, deadline=None)
@given(_FLOAT_DOCS)
def test_dump_json_writes_the_bytes_of_the_recursive_writer(doc):
    for indent in (0, 2):
        assert dump_json(doc, indent) == recursive_dump_json(doc, indent)


@settings(max_examples=200, deadline=None)
@given(_FLOAT_DOCS, st.sampled_from([math.nan, math.inf, -math.inf, np.float64(math.nan)]),
       st.sampled_from(["list", "float list", "tuple", "nested", "value"]))
def test_a_non_finite_float_anywhere_is_rejected(doc, bad, where):
    bad_doc = {
        "list": [doc, bad],
        "float list": {"a": doc, "b": [0.5, bad, -0.0]},
        "tuple": (bad,),
        "nested": [[1.0], [doc, [2.0, bad]]],
        "value": {"x": doc, "y": bad},
    }[where]
    for indent in (0, 2):
        with pytest.raises(ValidationError) as got:
            dump_json(bad_doc, indent)
        with pytest.raises(ValidationError) as want:
            recursive_dump_json(bad_doc, indent)
        assert str(got.value) == str(want.value)


def test_dump_csv_cells():
    header = ["flag", "off", "count", "missing", "nan", "x", "zero"]
    row = {"flag": True, "off": False, "count": -7, "missing": None,
           "nan": float("nan"), "x": 0.1, "zero": -0.0}
    assert dump_csv(header, [row]) == (
        "flag,off,count,missing,nan,x,zero\n"
        "true,false,-7,nan,nan,0.10000000000000001,0\n"
    )
    assert dump_csv(["n"], []) == "n\n"
