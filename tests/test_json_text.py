"""The CLI's JSON writer against json.dumps."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from gha.cli import _json_text  # noqa: E402

_DIGITS = 4000  # below the 4300 digits int.__repr__, and so json.dumps, writes by default
_chars = st.sampled_from('"\\/\x00\x08\x1f\x7f\t\n é€😀') | st.characters()
_strs = st.text(_chars, max_size=12)
_leaves = (st.none() | st.booleans() | _strs
           | st.integers(-10 ** _DIGITS + 1, 10 ** _DIGITS - 1) | st.integers(-3, 3))
_values = st.recursive(
    _leaves,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_strs, inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=200, deadline=None)
@given(_values)
def test_json_text_writes_what_json_dumps_writes(value):
    assert _json_text(value) == json.dumps(value)

