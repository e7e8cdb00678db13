"""The canonical JSON writer against the standard library encoder it replaces.

`_json_text` must give exactly the bytes of
``json.dumps(payload, sort_keys=True, indent=2) + "\\n"`` on every payload the
package can emit, and refuse, rather than convert, anything else.
"""

import json
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import anosovgraph.analysis as analysis_module
from anosovgraph.analysis import _dict_skeleton, _json_text, analyze
from anosovgraph.families import family_I_modified


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
# Rows of exact ints of one width take the row-splicing path: sparse and
# dense rows, negative entries, entries above 2^64, all-zero rows, tuples of
# tuples. Each other variant leaves that path at one of its checks: bools
# among the ints, ragged or empty rows, a row of another type, and a list
# of matrices, whose own items are the matrices.
wide_ints = st.one_of(st.integers(2**64, 2**100), st.integers(-(2**100), -(2**64)))
sparse_ints = st.one_of(st.just(0), st.just(0), st.just(0), st.integers(-5, 5), wide_ints)


def matrices(entries, max_width=6):
    return st.integers(1, max_width).flatmap(
        lambda width: st.lists(st.lists(entries, min_size=width, max_size=width), min_size=1, max_size=5)
    )


# Rows with no 0 are joined, rows holding one spliced, also within one
# matrix: dense rows such as a report's 1-based `order` pairs, and dense rows
# among sparse ones.
nonzero_ints = st.one_of(st.integers(1, 5), st.integers(-5, -1), wide_ints)
int_matrices = st.one_of(
    matrices(sparse_ints),
    matrices(ints),
    matrices(st.just(0)),
    matrices(nonzero_ints),
    matrices(st.one_of(nonzero_ints, nonzero_ints, nonzero_ints, st.just(0))),
    matrices(sparse_ints).map(lambda rows: tuple(map(tuple, rows))),
    matrices(sparse_ints).map(lambda rows: [tuple(r) if i % 2 else r for i, r in enumerate(rows)]),
)
near_matrices = st.one_of(
    matrices(st.one_of(sparse_ints, st.booleans())),
    st.lists(st.lists(sparse_ints, max_size=4), min_size=1, max_size=5),
    st.tuples(matrices(sparse_ints), st.one_of(texts, ints, st.just([]))).map(lambda m: [*m[0], m[1]]),
    st.lists(matrices(sparse_ints), min_size=1, max_size=3),
)
# Rows of strings take the row path too, at one width or ragged, as lists or
# tuples. Rows whose cells mix str, int, None and bool leave it for the
# general path.
str_rows = st.one_of(
    matrices(texts),
    matrices(texts).map(lambda rows: tuple(map(tuple, rows))),
    st.lists(st.lists(texts, min_size=1, max_size=4), min_size=1, max_size=5),
    st.lists(st.lists(texts, min_size=1, max_size=4).map(tuple), min_size=1, max_size=5).map(tuple),
)
mixed_cells = st.one_of(texts, st.integers(-5, 5), st.none(), st.booleans())
mixed_rows = st.one_of(
    matrices(mixed_cells),
    st.lists(st.lists(mixed_cells, min_size=1, max_size=4), min_size=1, max_size=5),
)
# Dict keys with the characters a text template or an escape could trip on.
keys = st.one_of(texts, st.text(alphabet=st.sampled_from('%s{}"\\é€😀 '), max_size=6))


def keyed(names, values):
    return st.fixed_dictionaries({name: values for name in names})


# Lists of dicts that share one key set, and dicts holding the same key set
# one level down, as a report's orbits, parts and components do.
shared_key_sets = st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.one_of(
        st.lists(keyed(names, scalars), min_size=2, max_size=4),
        keyed(names, keyed(names, scalars)),
        st.lists(keyed(names, st.lists(keyed(names, scalars), max_size=2)), min_size=1, max_size=3),
    )
)
payloads = st.recursive(
    st.one_of(scalars, flat_lists, int_matrices, near_matrices, str_rows, mixed_rows, shared_key_sets),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(keys, children, max_size=4),
    ),
    max_leaves=30,
)


@given(payloads)
@settings(max_examples=200, deadline=None)
def test_matches_the_library_encoder(payload):
    assert _json_text(payload) == reference(payload)


@given(st.one_of(int_matrices, near_matrices))
@settings(max_examples=300, deadline=None)
def test_matrices_match_the_library_encoder(payload):
    assert _json_text(payload) == reference(payload)
    assert _json_text({"m": payload}) == reference({"m": payload})  # one level deeper


@given(st.one_of(str_rows, mixed_rows, shared_key_sets))
@settings(max_examples=300, deadline=None)
def test_rows_and_shared_key_sets_match_the_library_encoder(payload):
    assert _json_text(payload) == reference(payload)
    assert _json_text({"m": payload}) == reference({"m": payload})  # one level deeper


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
        [[0, 0, 0], [0, 0, 0]],
        [[0, 7, 0], [-(2**65), 0, 2**64]],
        [[1, 2], [2, 3], [1, 3]],
        [[1, 2], [0, 3], [-(2**70), 2**64]],
        ((0, 1), (1, 0)),
        [[0, 1], [True, 0]],
        [[0, False], [1, 0]],
        [[1, 2], [3]],
        [[], []],
        [[1], []],
        [[1, 2], "ab"],
        [[[0, 1], [1, 0]], [[2, 0], [0, 2]]],
        [["a", "b"], ["c"]],
        [["a", 1]],
        [[True, False]],
        {"%s": 1, "%%": {"%s": [1]}},
    ],
)
def test_edge_payloads(payload):
    assert _json_text(payload) == reference(payload)


@pytest.mark.parametrize(
    "payload",
    [
        {1: "a"}, {True: "a"}, {"a": 1, 2: "b"}, {"a": {None: 1}}, 1.5, [0.0], {1, 2}, {"a": frozenset()},
        [[0, 0.0], [0, 0]], [[1, 2], [3, 1.5]], [{"a": 1}, {1: 2}], {"a": {"b": 1}, "c": {True: 1}},
    ],
    ids=[
        "int-key", "bool-key", "mixed-keys", "none-key", "float", "float-in-list", "set", "frozenset",
        "float-zero-in-matrix", "float-in-matrix", "int-key-after-a-str-key-set", "bool-key-one-level-down",
    ],
)
def test_refuses_what_it_would_have_to_convert(payload):
    with pytest.raises(TypeError):
        _json_text(payload)


def test_a_refused_key_set_is_refused_again_and_the_cache_stays_bounded():
    for _ in range(2):  # a key set that raised is not cached, so it raises again
        with pytest.raises(TypeError):
            _json_text({"a": 1, 2: "b"})
    for k in range(3 * _dict_skeleton.cache_info().maxsize):
        assert _json_text({f"k{k}": k}) == reference({f"k{k}": k})
    assert _dict_skeleton.cache_info().currsize <= _dict_skeleton.cache_info().maxsize


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int digit limit before 3.10.7")
def test_ints_beyond_the_digit_limit_on_concurrent_threads():
    # The limit is process-wide: a render that ends must not restore it under
    # a render still running on another thread.
    before = sys.get_int_max_str_digits()
    payload = {"c": [10**5000 + k for k in range(4)], "m": [[10**4400, 0], [0, -1]]}
    sys.set_int_max_str_digits(0)
    try:
        expected = reference(payload)
    finally:
        sys.set_int_max_str_digits(before)
    failures = []

    def work():
        try:
            for _ in range(100):
                assert _json_text(payload) == expected
        except Exception as exc:  # collected and asserted below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert sys.get_int_max_str_digits() == before


@pytest.fixture
def int_conversions(monkeypatch):
    """The ints that the writer converts through its scalar table, in order."""
    converted = []
    real = analysis_module._SCALAR_TEXT[int]
    monkeypatch.setitem(analysis_module._SCALAR_TEXT, int, lambda value: converted.append(value) or real(value))
    return converted


def test_an_int_list_written_again_is_converted_once(int_conversions):
    poly = [2**100 + k for k in range(5)]
    payload = {"a": poly, "b": {"c": list(poly), "d": [{"e": list(poly)}]}, "f": poly[:4], "g": (7, 8)}
    assert _json_text(payload) == reference(payload)
    assert sorted(int_conversions) == sorted(poly + poly[:4] + [7, 8])


def test_the_witness_polynomial_is_converted_once(int_conversions):
    # full_char_poly, the certificate's char_poly and its first stage's poly
    # hold the same coefficients
    instance = family_I_modified(3)
    payload = analyze(instance.graph, instance.generators, want_witness=True).canonical_dict()
    witness = payload["witness"]
    poly = witness["full_char_poly"]
    assert type(poly) is list
    assert witness["certificate"]["char_poly"] == witness["certificate"]["stages"][0]["poly"] == poly
    assert _json_text(payload) == reference(payload)
    largest = max(poly, key=abs)
    assert largest.bit_length() > 40
    assert int_conversions.count(largest) == 1
