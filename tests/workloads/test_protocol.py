"""Tests for the framing protocol, including hypothesis round-trips."""

import ast

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import protocol


def test_frame_roundtrip():
    body = b"hello world"
    framed = protocol.frame(body)
    got, rest = protocol.peel_frame(framed)
    assert got == body and rest == b""


def test_peel_incomplete_header():
    assert protocol.peel_frame(b"0000") == (None, b"0000")


def test_peel_incomplete_body():
    framed = protocol.frame(b"abcdef")
    assert protocol.peel_frame(framed[:-2]) == (None, framed[:-2])


def test_peel_two_frames():
    data = protocol.frame(b"one") + protocol.frame(b"two")
    first, rest = protocol.peel_frame(data)
    second, rest = protocol.peel_frame(rest)
    assert (first, second, rest) == (b"one", b"two", b"")


def test_frame_ready_counts_missing_bytes():
    framed = protocol.frame(b"abcdef")
    assert protocol.frame_ready(framed) == 0
    assert protocol.frame_ready(framed[:-4]) == 4
    assert protocol.frame_ready(b"") == protocol.HEADER_LEN
    assert protocol.frame_ready(framed[:3]) == protocol.HEADER_LEN - 3


def test_encode_decode_structures():
    obj = ("BATCH", [("set", 3, "value"), ("get", 7, None)])
    assert protocol.decode_body(protocol.encode_body(obj)) == obj


@given(st.binary(max_size=2000))
def test_property_frame_roundtrip(body):
    got, rest = protocol.peel_frame(protocol.frame(body))
    assert got == body and rest == b""


@given(st.lists(st.binary(max_size=200), max_size=10))
def test_property_concatenated_frames_parse_in_order(bodies):
    stream = b"".join(protocol.frame(b) for b in bodies)
    out = []
    while True:
        body, stream = protocol.peel_frame(stream)
        if body is None:
            break
        out.append(body)
    assert out == bodies and stream == b""


_STRING_CHARS = st.sampled_from("'\"\\\n\x00\t\x7féß€😀 aZ09") | st.characters()
_SCALARS = st.one_of(
    st.integers(),
    st.integers(min_value=10**20),
    st.integers(max_value=-(10**20)),
    st.booleans(),
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 1e16, -1e16, 1.5e-7, 0.1]),
    st.text(_STRING_CHARS, max_size=20),
    st.binary(max_size=20),
    st.sampled_from([bytes(range(256)), bytes(range(255, -1, -1))]),
)
_KEYS = st.one_of(st.integers(), st.text(_STRING_CHARS, max_size=8), st.booleans())


@given(
    st.recursive(
        _SCALARS,
        lambda children: st.one_of(
            st.lists(children, max_size=4).map(tuple),
            st.lists(children, max_size=4),
            st.dictionaries(_KEYS, children, max_size=4),
        ),
        max_leaves=12,
    )
)
def test_property_encode_decode_roundtrip(obj):
    """The strict decoder agrees with ``ast.literal_eval`` type-exactly
    (``True`` is not ``1``, a tuple is not a list) on everything
    ``encode_body`` is given."""
    body = protocol.encode_body(obj)
    assert repr(protocol.decode_body(body)) == repr(ast.literal_eval(body.decode()))


@pytest.mark.parametrize(
    "body",
    [
        b"",  # empty body
        b"(1, 2",  # unbalanced: unclosed
        b"[1, 2)",  # unbalanced: wrong closer
        b"[1]]",  # unbalanced: extra closer
        b"[1 2]",  # missing separator
        b"[1, , 2]",  # extra separator
        b"[1, ]",  # dangling separator
        b"(1, 2,)",  # trailing comma only in a one-element tuple
        b"(1)",  # one-element tuple without its comma
        b"{1: 2, 3}",  # dict key without a value
        b"{1, 2}",  # set
        b"[1: 2]",  # ': ' outside a dict
        b"{1: 2: 3: 4}",  # ': ' after a dict value
        b"1, 2",  # bare top-level tuple
        b"[1] x",  # trailing data
        b"'a' 'b'",  # implicit concatenation
        b"foo",  # bare name
        b"inf",  # bare name
        b"1j",  # complex
        b"007",  # leading zeros
        b"'\\N{no such name}'",  # bad escape in an escaped token
        "b'é'".encode(),  # non-ASCII bytes literal
        b"'a\x00b'",  # raw NUL
    ],
)
def test_malformed_bodies_rejected(body):
    with pytest.raises(ValueError):
        protocol.decode_body(body)
