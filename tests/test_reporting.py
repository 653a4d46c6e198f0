"""Deterministic serialization tests for the report writers."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from garland.reporting import input_digest, render_json, render_text, to_jsonable


@dataclass(frozen=True)
class Sample:
    name: str
    value: float
    flags: tuple[bool, ...]


def test_to_jsonable_dataclass_keeps_field_order():
    out = to_jsonable(Sample(name="x", value=1.5, flags=(True, False)))
    assert list(out.keys()) == ["name", "value", "flags"]
    assert out["flags"] == [True, False]


def test_to_jsonable_numpy_and_inf():
    assert to_jsonable(np.float64(2.5)) == 2.5
    assert to_jsonable(np.int64(7)) == 7
    assert to_jsonable(math.inf) is None
    assert to_jsonable(np.array([[1.0, 2.0]])) == [[1.0, 2.0]]
    with pytest.raises(ValueError):
        to_jsonable(math.nan)


def test_to_jsonable_refuses_sets_and_non_string_keys():
    assert to_jsonable({"a": (1, [2.0])}) == {"a": [1, [2.0]]}
    for value in ({1, 2}, frozenset({1}), {1: "a"}, {(0, 1): 2.0}):
        with pytest.raises(TypeError):
            to_jsonable(value)


def test_render_json_floats_round_trip():
    values = [1 / 3, 1e-17, -0.0, 123456789.123456789, 2.0]
    text = render_json({"v": values})
    parsed = json.loads(text)
    assert parsed["v"] == values  # the shortest repr round-trips exactly


def test_render_json_deterministic():
    doc = {"b": [1.0, 2.0], "a": {"nested": 0.1}}
    assert render_json(doc) == render_json(doc)


def test_render_json_is_one_line_of_strict_json():
    assert "\n" not in render_json({"a": [1, {"b": [2.5, None]}], "c": "x\ny"})
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            render_json({"v": [value]})


def test_render_text_shape():
    text = render_text({"classification": "spherical", "eigenvalues": [0.5, 1.5]})
    assert "classification: spherical" in text
    assert "- 0.5" in text
    assert render_text({"options": {}, "warnings": []}) == "options: {}\nwarnings: []"


def test_input_digest():
    d = input_digest(b"abc")
    assert d == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
