"""The report writer ``cli.json_text`` against ``json.dumps(v, indent=2)``.

Every report is written by ``json_text``, which must give the bytes of
``json.dumps(doc, indent=2)``: on values that hypothesis draws, on every
golden file, and with the same TypeError on a value or key that JSON
cannot hold.
"""

from __future__ import annotations

import json
from enum import IntEnum
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from flatcheck.cli import json_text

GOLDEN = Path(__file__).parent / "golden"


class Level(IntEnum):
    LOW = -3


class Tag(str):
    pass


# lone surrogates and control characters included
TEXT = st.text(st.characters(blacklist_categories=()), max_size=8)
SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-10**60, 10**60),
    st.floats(allow_nan=True, allow_infinity=True), st.just(-0.0),
    st.floats(allow_nan=True, allow_infinity=True).map(np.float64),
    TEXT, TEXT.map(Tag), st.just(Level.LOW))
KEYS = st.one_of(TEXT, st.integers(-10**30, 10**30), st.booleans(), st.none(),
                 st.floats(allow_nan=True, allow_infinity=True))
VALUES = st.recursive(
    SCALARS,
    lambda children: st.one_of(st.lists(children, max_size=4),
                               st.lists(children, max_size=4).map(tuple),
                               st.dictionaries(KEYS, children, max_size=4)),
    max_leaves=24)


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(VALUES)
def test_json_text_is_json_dumps_indented(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    [], (), {}, [[]], {"a": {}}, [(), {}, []], -0.0, [float("nan"), -float("inf")],
    {1.5: 1, True: 2, None: 3, -7: 4, float("inf"): 5}, "\x00\x1f\x7fé \ud800",
    10**100, [10**40, -10**40, True, False, None], np.float64("nan"), [np.float64(-0.0)]])
def test_json_text_of_edge_values(value):
    assert json_text(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("path", sorted(GOLDEN.iterdir()), ids=lambda p: p.name)
def test_json_text_reencodes_every_golden_file(path):
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert json_text(doc) == json.dumps(doc, indent=2)


@pytest.mark.parametrize("value", [
    object(), {1, 2}, Fraction(1, 2), 1j, b"x", np.int64(3), [1, {"a": [set()]}],
    {(1, 2): 0}, {"a": {Fraction(1, 2): 0}}])
def test_json_text_refuses_what_json_refuses(value):
    with pytest.raises(TypeError) as want:
        json.dumps(value, indent=2)
    with pytest.raises(TypeError) as got:
        json_text(value)
    assert str(got.value) == str(want.value)
