"""The canonical JSON writer against the standard library encoder it replaces.

`_json_text` must give exactly the bytes of
``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` on every payload the
package can emit, and refuse, rather than convert, anything else.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anosovgraph.analysis import _json_text


def reference(payload) -> str:
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


# Escapes, control characters, non-ASCII, the line separator U+2028, astral
# code points and a lone surrogate, which a "\ud83d" escape in a decoded
# input file produces.
texts = st.text(
    alphabet=st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f é€ 😀\ud83d'), st.characters()),
    max_size=12,
)
ints = st.one_of(st.integers(-5, 5), st.integers(min_value=-(2**200), max_value=2**200))
scalars = st.one_of(st.none(), st.booleans(), ints, texts)
# Homogeneous lists take the one-join path; mixed ones (bools among ints) recurse.
flat_lists = st.one_of(
    st.lists(ints, max_size=6),
    st.lists(texts, max_size=6),
    st.lists(st.one_of(ints, st.booleans()), max_size=6),
)
payloads = st.recursive(
    st.one_of(scalars, flat_lists),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(texts, children, max_size=4),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_matches_the_library_encoder(payload):
    assert _json_text(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {},
        [],
        (),
        {"a": {}, "b": [], "c": [[]], "d": [{}]},
        [True, 1, False, 0],
        [1, True],
        ["x", None],
        [2**64 + 1, -(2**70)],
        {"é": "😀", " ": "\x00", "a\"b": "\\"},
        ((1, 2), ("a", "b"), (None,)),
        "top-level string",
        -7,
        None,
        True,
    ],
)
def test_edge_payloads(payload):
    assert _json_text(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [{1: "a"}, {True: "a"}, {"a": 1, 2: "b"}, {"a": {None: 1}}, 1.5, [0.0], {1, 2}, {"a": frozenset()}],
    ids=["int-key", "bool-key", "mixed-keys", "none-key", "float", "float-in-list", "set", "frozenset"],
)
def test_refuses_what_it_would_have_to_convert(payload):
    with pytest.raises(TypeError):
        _json_text(payload)
