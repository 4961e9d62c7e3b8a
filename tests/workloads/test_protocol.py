"""Tests for the framing protocol, including hypothesis round-trips."""

import ast

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.workloads import protocol


def test_frame_roundtrip():
    body = b"hello world"
    buffer = bytearray(protocol.frame(body))
    assert protocol.pop_frame(buffer) == body and buffer == b""


def test_peel_incomplete_header():
    buffer = bytearray(b"0000")
    assert protocol.pop_frame(buffer) is None and buffer == b"0000"


def test_peel_incomplete_body():
    framed = protocol.frame(b"abcdef")
    buffer = bytearray(framed[:-2])
    assert protocol.pop_frame(buffer) is None and buffer == framed[:-2]


def test_peel_two_frames():
    buffer = bytearray(protocol.frame(b"one") + protocol.frame(b"two"))
    first = protocol.pop_frame(buffer)
    second = protocol.pop_frame(buffer)
    assert (first, second, buffer) == (b"one", b"two", b"")
    assert type(first) is bytes


def test_frame_ready_counts_missing_bytes():
    framed = protocol.frame(b"abcdef")
    assert protocol.frame_ready(framed) == 0
    assert protocol.frame_ready(framed[:-4]) == 4
    assert protocol.frame_ready(b"") == protocol.HEADER_LEN
    assert protocol.frame_ready(framed[:3]) == protocol.HEADER_LEN - 3


_TWO = protocol.frame(b"abcdef") + protocol.frame(b"xy")


@pytest.mark.parametrize(
    "buffer",
    [
        b"",
        _TWO[:3],  # partial header
        _TWO[: protocol.HEADER_LEN],  # header only
        _TWO[: protocol.HEADER_LEN + 2],  # partial body
        _TWO[: protocol.HEADER_LEN + 6],  # exact frame
        _TWO[: protocol.HEADER_LEN + 9],  # frame, then part of the next header
        _TWO,  # frame, then a whole second frame
    ],
)
def test_frame_ready_from_header_peek(buffer):
    """A server peeks only the header and passes the buffered count."""
    head = buffer[: protocol.HEADER_LEN]
    assert protocol.frame_ready(head, len(buffer)) == protocol.frame_ready(buffer)


def test_encode_decode_structures():
    obj = ("BATCH", [("set", 3, "value"), ("get", 7, None)])
    assert protocol.decode_body(protocol.encode_body(obj)) == obj


@given(st.binary(max_size=2000))
def test_property_frame_roundtrip(body):
    buffer = bytearray(protocol.frame(body))
    assert protocol.pop_frame(buffer) == body and buffer == b""


@given(st.lists(st.binary(max_size=200), max_size=10))
def test_property_concatenated_frames_parse_in_order(bodies):
    stream = bytearray(b"".join(protocol.frame(b) for b in bodies))
    out = []
    while (body := protocol.pop_frame(stream)) is not None:
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
# Flat containers: the decoder reads a tuple or list of plain scalars as one
# token.  The strings mix plain ones with commas, quotes and brackets, so
# near-flat containers fall back to the token path.
_FLAT_ITEMS = st.lists(
    st.one_of(
        st.integers(),
        st.booleans(),
        st.none(),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(st.sampled_from("aZ09 .:-é()[]{},'\""), max_size=8),
    ),
    max_size=6,
)
_FLAT = st.one_of(_FLAT_ITEMS, _FLAT_ITEMS.map(tuple))
_KEYS = st.one_of(st.integers(), st.text(_STRING_CHARS, max_size=8), st.booleans())


@given(
    st.recursive(
        _SCALARS | _FLAT,
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
        b"('a',1)",  # flat: no space after ','
        b"(1, 2, )",  # flat: dangling separator
        b"['a' , 1]",  # flat: space before ','
        b"[1,2]",  # flat: ',' without a space
        b"('a', 1,)",  # flat: trailing ',' on a two-element tuple
        b"('a\x00b', 1)",  # flat: raw NUL in a str
    ],
)
def test_malformed_bodies_rejected(body):
    with pytest.raises(ValueError):
        protocol.decode_body(body)


@pytest.mark.parametrize(
    "body",
    [
        b"('a, b', 1)",  # a comma in a str: token path
        b"(\"it's\", 1)",  # a quote in a str: token path
        b"(1,)",  # one-element tuple
        b"{('a', 1): [2, None]}",  # flat dict key and value
        b"[-0, 1.5e-07, True]",  # int, float and constant items
        b"('x)', ['y]', '(z'])",  # brackets inside plain strs
    ],
)
def test_flat_bodies_decode_type_exact(body):
    assert repr(protocol.decode_body(body)) == repr(ast.literal_eval(body.decode()))
