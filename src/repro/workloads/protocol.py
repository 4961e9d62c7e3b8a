"""Wire protocol helpers for workload traffic.

All workload requests/responses are length-prefixed frames of real bytes —
they flow through the simulated TCP stack, get buffered by the plug qdisc,
survive checkpoints inside socket read/write queues, and are re-parsed
after failover.  Frame bodies are the ``repr`` of a Python literal (str,
bytes, int, float, None/True/False, and tuples, lists and dicts of those),
so wire sizes are faithful.  :func:`decode_body` parses exactly that
grammar in one strict pass and rejects anything ``repr`` cannot emit.

A tuple or list whose items are all *plain* scalars (ints, floats,
None/True/False, and strings with no quote, backslash, comma or control
character) is one token: a kv batch's ``('set', 0, '...')`` ops and its
reply's list of strings cost one regex match each, not one per item.

Readiness needs only the header: :func:`frame_ready` takes the first
:data:`HEADER_LEN` bytes and the buffered byte count, so a server never
copies a receive queue of pipelined requests to learn the next length.
"""

from __future__ import annotations

import ast
import re
from typing import Any

__all__ = ["decode_body", "encode_body", "frame", "frame_ready", "pop_frame"]

HEADER_LEN = 8  # ASCII decimal length, zero-padded


def frame(body: bytes) -> bytes:
    """Length-prefix *body*."""
    return f"{len(body):0{HEADER_LEN}d}".encode() + body


def frame_ready(head: bytes, available: int | None = None) -> int:
    """Bytes needed for the next complete frame (0 if one is ready).

    *head* is the buffer, or at least its first :data:`HEADER_LEN` bytes;
    *available* is the buffer's full length (``len(head)`` by default).
    Returns the *additional* byte count required, so callers can pass it to
    ``data_available(min_bytes=...)`` without busy-looping on partials.
    """
    if available is None:
        available = len(head)
    if available < HEADER_LEN:
        return HEADER_LEN - available
    return max(0, HEADER_LEN + int(head[:HEADER_LEN]) - available)


def pop_frame(buffer: bytearray) -> bytes | None:
    """Remove one complete frame from the front of *buffer*.

    Returns its body, or None (leaving *buffer* as it was) when no complete
    frame is buffered yet.
    """
    if frame_ready(buffer) != 0:
        return None
    end = HEADER_LEN + int(buffer[:HEADER_LEN])
    body = bytes(buffer[HEADER_LEN:end])
    del buffer[:end]
    return body


def encode_body(obj: Any) -> bytes:
    """Encode a python-literal message (tuples/lists/dicts/str/int/bytes)."""
    return repr(obj).encode()


# A plain scalar: an int, float or constant as groups 4-6 below match it, or
# a str with no quote, backslash, comma or control character.  With no
# comma inside a plain str, ", " inside a flat container only separates.
_PLAIN = r"""(?:'[^'"\\,\x00-\x1f]*'|-?(?:0|[1-9][0-9]*)|None|True|False
  |-?[0-9]+(?:\.[0-9]+)?e[-+][0-9]+|-?[0-9]+\.[0-9]+)"""
# A list of plain scalars, a tuple of two or more, or a one-element tuple,
# with exactly the separators ``repr`` writes.
_FLAT = rf"""\[{_PLAIN}(?:,\ {_PLAIN})*\]|\({_PLAIN}(?:,\ {_PLAIN})+\)|\({_PLAIN},\)"""

# One match per opening bracket, or per value / closing bracket together
# with the separator ``repr`` writes after it; a flat container is one
# value.  The last alternative takes any other character, so ``findall``
# never skips input: every character of a body lands in some token, and a
# stray one is reported, not ignored.  (In this f-string, ``{{`` and ``}}``
# are literal braces.)
_TOKEN = re.compile(
    rf"""
      (?:
        ({_FLAT})                               # 1 flat tuple or list
      | ([\])}}])                               # 2 closing bracket
      | ('[^'\\\x00-\x1f]*'|"[^"\\\x00-\x1f]*")  # 3 str without escapes
      | (-?(?:0|[1-9][0-9]*))(?![0-9.e])        # 4 int
      | (None|True|False)                       # 5 constant
      | (-?[0-9]+(?:\.[0-9]+)?e[-+][0-9]+|-?[0-9]+\.[0-9]+)  # 6 float
      | (b?(?:'(?:[^'\\\n\r]|\\.)*'|"(?:[^"\\\n\r]|\\.)*"))  # 7 bytes, escaped str
      )
      (,\ |:\ |,|)                              # 8 trailing separator
    | ([\[({{])                                 # 9 opening bracket
    | (.)                                       # 10 anything else
    """,
    re.VERBOSE | re.DOTALL,
)
_CLOSER = {"(": ")", "[": "]", "{": "}"}
_CONSTANT = {"None": None, "True": True, "False": False}

# What the previous token allows next.
_OPENED = 0  # just after an opening bracket: a value or the closing bracket
_ITEM = 1  # after ", " or ": " (and at the start): a value
_DONE = 2  # after a value with no separator: the closing bracket or the end
_SINGLE = 3  # after the "," of a one-element tuple: ")"


def decode_body(body: bytes) -> Any:
    """Parse a body written by :func:`encode_body`.

    Raises :class:`ValueError` on anything ``repr`` cannot have produced:
    unbalanced brackets, a missing or extra separator, trailing data, a
    bare name, or an empty body.
    """
    top: list = []
    cur = top  # items of the innermost open bracket
    closer = ""  # the bracket that closes ``cur`` ("" at the top level)
    stack: list[tuple[list, str]] = []
    want = _ITEM
    for flat, close, text, num, const, flt, quoted, sep, opener, junk in _TOKEN.findall(
        body.decode()
    ):
        if close:
            if close != closer:
                raise ValueError(f"unbalanced {close!r}")
            if want == _ITEM:
                raise ValueError(f"separator before {close!r}")
            if close == "]":
                value = cur
            elif close == ")":
                if want == _DONE and len(cur) == 1:
                    raise ValueError("one-element tuple without its ','")
                value = tuple(cur)
            else:
                if len(cur) % 2:
                    raise ValueError("dict key without a value")
                pairs = iter(cur)
                try:
                    value = dict(zip(pairs, pairs))
                except TypeError as exc:
                    raise ValueError(str(exc)) from None
            cur, closer = stack.pop()
        elif want > _ITEM:
            raise ValueError("missing separator between values")
        elif flat:
            # The regex checked every separator; the interior only splits.
            inner = flat[1:-2] if flat[-2] == "," else flat[1:-1]
            items = [
                item[1:-1] if item[0] == "'"
                else _CONSTANT[item] if item[0] in "NTF"
                else float(item) if "." in item or "e" in item
                else int(item)
                for item in inner.split(", ")
            ]
            value = items if flat[0] == "[" else tuple(items)
        elif text:
            value = text[1:-1]
        elif num:
            value = int(num)
        elif opener:
            stack.append((cur, closer))
            cur = []
            closer = _CLOSER[opener]
            want = _OPENED
            continue
        elif const:
            value = _CONSTANT[const]
        elif flt:
            value = float(flt)
        elif quoted:
            try:
                value = ast.literal_eval(quoted)
            except SyntaxError as exc:  # e.g. a bad escape or non-ASCII bytes
                raise ValueError(f"bad literal {quoted[:40]!r}: {exc.msg}") from None
        else:
            raise ValueError(f"unexpected {junk!r}")
        cur.append(value)
        if not sep:
            want = _DONE
        elif sep == ", ":
            if not closer or (closer == "}" and len(cur) % 2):
                raise ValueError("unexpected ', '")
            want = _ITEM
        elif sep == ": ":
            if closer != "}" or not len(cur) % 2:
                raise ValueError("unexpected ': '")
            want = _ITEM
        else:
            if closer != ")" or len(cur) != 1:
                raise ValueError("unexpected ','")
            want = _SINGLE
    if stack:
        raise ValueError(f"missing {closer!r} at the end")
    if not top:
        raise ValueError("empty body")
    return top[0]
