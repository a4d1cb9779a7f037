"""Canonical JSON emission for reports and generated files.

json.dumps prints floats with the shortest round-trip repr; report
files instead need a fixed 17-significant-digit form so that byte
identity across runs is a meaningful determinism check. Keys are
sorted, separators fixed, NaN/Inf rejected.
"""

from __future__ import annotations

import math
import re
from typing import Any


def _encode(obj: Any, out: list[str]) -> None:
    # exact-type dispatch for what reports are made of; everything else
    # (bool, None, int and float subclasses such as np.float64) takes the
    # isinstance chain below and encodes as it always has
    t = type(obj)
    if t is float:
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} in report")
        out.append(format(obj, ".17g"))
    elif t is str:
        out.append(_escape(obj))
    elif t is dict:
        _encode_dict(obj, out)
    elif t is list or t is tuple:
        _encode_list(obj, out)
    elif t is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    elif isinstance(obj, int):
        out.append(str(obj))
    elif isinstance(obj, float):
        if not math.isfinite(obj):
            raise ValueError(f"non-finite float {obj!r} in report")
        out.append(format(obj, ".17g"))
    elif isinstance(obj, str):
        out.append(_escape(obj))
    elif isinstance(obj, (list, tuple)):
        _encode_list(obj, out)
    elif isinstance(obj, dict):
        _encode_dict(obj, out)
    else:
        raise TypeError(f"unserializable object {obj!r}")


def _encode_list(obj, out: list[str]) -> None:
    append = out.append
    sep = "["
    for item in obj:
        append(sep)
        sep = ","
        _encode(item, out)
    append("]" if sep == "," else "[]")


def _encode_dict(obj, out: list[str]) -> None:
    append = out.append
    sep = "{"
    for key in sorted(obj):
        if not isinstance(key, str):
            raise TypeError(f"non-string key {key!r}")
        append(sep)
        sep = ","
        append(_escape(key))
        append(":")
        _encode(obj[key], out)
    append("}" if sep == "," else "{}")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f]')


def _escape(s: str) -> str:
    if _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def dumps_canonical(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, out)
    out.append("\n")
    return "".join(out)


def dump_canonical(obj: Any, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_canonical(obj))
