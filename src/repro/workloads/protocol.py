"""Wire protocol helpers for workload traffic.

All workload requests/responses are length-prefixed frames of real bytes —
they flow through the simulated TCP stack, get buffered by the plug qdisc,
survive checkpoints inside socket read/write queues, and are re-parsed
after failover.  Frame bodies are the ``repr`` of a Python literal (str,
bytes, int, float, None/True/False, and tuples, lists and dicts of those),
so wire sizes are faithful.  :func:`decode_body` parses exactly that
grammar in one strict pass and rejects anything ``repr`` cannot emit.
"""

from __future__ import annotations

import ast
import re
from typing import Any

__all__ = ["decode_body", "encode_body", "frame", "peel_frame", "frame_ready"]

HEADER_LEN = 8  # ASCII decimal length, zero-padded


def frame(body: bytes) -> bytes:
    """Length-prefix *body*."""
    return f"{len(body):0{HEADER_LEN}d}".encode() + body


def frame_ready(buffer: bytes) -> int:
    """Bytes needed for the next complete frame (0 if one is ready).

    Returns the *additional* byte count required, so callers can pass it to
    ``data_available(min_bytes=...)`` without busy-looping on partials.
    """
    if len(buffer) < HEADER_LEN:
        return HEADER_LEN - len(buffer)
    body_len = int(buffer[:HEADER_LEN])
    total = HEADER_LEN + body_len
    return max(0, total - len(buffer))


def peel_frame(buffer: bytes) -> tuple[bytes | None, bytes]:
    """Split off one complete frame: ``(body | None, remainder)``."""
    if frame_ready(buffer) != 0:
        return None, buffer
    body_len = int(buffer[:HEADER_LEN])
    body = buffer[HEADER_LEN : HEADER_LEN + body_len]
    return body, buffer[HEADER_LEN + body_len :]


def encode_body(obj: Any) -> bytes:
    """Encode a python-literal message (tuples/lists/dicts/str/int/bytes)."""
    return repr(obj).encode()


# One match per opening bracket, or per value / closing bracket together
# with the separator ``repr`` writes after it.  The last alternative takes
# any other character, so ``findall`` never skips input: every character
# of a body lands in some token, and a stray one is reported, not ignored.
_TOKEN = re.compile(
    r"""
      ([\[({])                                  # 1 opening bracket
    | (?:
        ([\])}])                                # 2 closing bracket
      | ('[^'\\\x00-\x1f]*'|"[^"\\\x00-\x1f]*")  # 3 str without escapes
      | (-?(?:0|[1-9][0-9]*))(?![0-9.e])        # 4 int
      | (None|True|False)                       # 5 constant
      | (-?[0-9]+(?:\.[0-9]+)?e[-+][0-9]+|-?[0-9]+\.[0-9]+)  # 6 float
      | (b?(?:'(?:[^'\\\n\r]|\\.)*'|"(?:[^"\\\n\r]|\\.)*"))  # 7 bytes, escaped str
      )
      (,\ |:\ |,|)                              # 8 trailing separator
    | (.)                                       # 9 anything else
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
    for opener, close, text, num, const, flt, quoted, sep, junk in _TOKEN.findall(
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
