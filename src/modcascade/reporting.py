"""Canonical JSON emission for reports and generated files.

json.dumps prints floats with the shortest round-trip repr; report
files instead need a fixed 17-significant-digit form so that byte
identity across runs is a meaningful determinism check. Keys are
sorted, separators fixed, NaN/Inf rejected (``ValueError``).

The encoder takes ``dict`` (string keys), ``list``, ``tuple``,
``LazyList``, ``str``, ``int``, ``float``, ``bool`` and ``None``, a
subclass of any of these as its base type (``np.float64`` as a float),
and the two core value types: a ``BoundingBox`` as ``[x,y,w,h]`` and a
``Detection`` as ``{"box":[x,y,w,h],"confidence":c,"label":l}``, each
number in the same ``.17g`` form. Anything else is a ``TypeError``.

One encoder appends the document's fragments to a list.
``dumps_canonical`` joins them; ``dump_canonical`` streams them to the
file, writing the pending fragments out after a list item once there
are more than ``_FLUSH_FRAGMENTS`` of them, so the writer's memory does
not grow with the report. A ``LazyList`` builds its items only while it
is encoded, so a large block of a report need not exist all at once.
"""

from __future__ import annotations

import contextlib
import os
import re
from typing import Any, Callable, Sequence

from .core import BoundingBox, Detection

# pending fragments after which dump_canonical writes them to the file
_FLUSH_FRAGMENTS = 4096


class LazyList:
    """A list, to the encoder, of ``build(item)`` for each of ``items``.

    Each item is built while it is encoded and dropped after, afresh on
    every pass, so the same report encodes to the same bytes twice.
    """

    __slots__ = ("items", "build")

    def __init__(self, items: Sequence, build: Callable[[Any], Any]):
        self.items = items
        self.build = build

    def __iter__(self):
        return map(self.build, self.items)


def _encode(obj: Any, out: list[str], flush) -> None:
    t = type(obj)
    if t is float:
        out.append(_numbers("%.17g", obj))
    elif t is str:
        out.append(_escape(obj))
    elif t is dict:
        _encode_dict(obj, out, flush)
    elif t is list or t is tuple or t is LazyList:
        _encode_list(obj, out, flush)
    elif t is Detection:
        b = obj.box
        box = _numbers(_BOX, b.x, b.y, b.w, b.h)
        confidence = _numbers("%.17g", obj.confidence)
        out.append('{"box":%s,"confidence":%s,"label":%s}' % (box, confidence, _escape(obj.label)))
    elif t is BoundingBox:
        out.append(_numbers(_BOX, obj.x, obj.y, obj.w, obj.h))
    elif t is int:
        out.append(str(obj))
    elif obj is None:
        out.append("null")
    elif obj is True:
        out.append("true")
    elif obj is False:
        out.append("false")
    else:
        # a subclass (np.float64, a str enum, a namedtuple) encodes as its base
        for base, convert in _BASES:
            if isinstance(obj, base):
                _encode(convert(obj), out, flush)
                return
        raise TypeError(f"unserializable object {obj!r}")


_BOX = "[%.17g,%.17g,%.17g,%.17g]"
_BASES = ((float, float), (int, int), (str, str.__str__), (dict, dict), ((list, tuple), list))


def _numbers(fmt: str, *values) -> str:
    text = fmt % values
    # .17g writes an "n" only in inf and nan
    if "n" in text:
        raise ValueError(f"non-finite number in report: {values!r}")
    return text


def _encode_list(obj, out: list[str], flush) -> None:
    append = out.append
    sep = "["
    for item in obj:
        append(sep)
        sep = ","
        _encode(item, out, flush)
        if flush is not None and len(out) > _FLUSH_FRAGMENTS:
            flush(out)
    append("]" if sep == "," else "[]")


# key tuple -> (key, '{"key":' or ',"key":') in sorted key order, for
# the dict shapes a report repeats; bounded in entries and in keys each
_KEY_PREFIXES: dict[tuple, tuple[tuple[str, str], ...]] = {}
_KEY_PREFIXES_MAX = 256
_KEY_PREFIXES_MAX_KEYS = 32


def _key_prefixes(obj) -> tuple[tuple[str, str], ...]:
    shape = tuple(obj)
    prefixes = _KEY_PREFIXES.get(shape)
    if prefixes is None:
        keys = sorted(shape)
        for key in keys:
            if not isinstance(key, str):
                raise TypeError(f"non-string key {key!r}")
        seps = ["{"] + [","] * (len(keys) - 1)
        prefixes = tuple((key, sep + _escape(key) + ":") for sep, key in zip(seps, keys))
        if len(_KEY_PREFIXES) < _KEY_PREFIXES_MAX and len(shape) <= _KEY_PREFIXES_MAX_KEYS:
            _KEY_PREFIXES[shape] = prefixes
    return prefixes


def _encode_dict(obj, out: list[str], flush) -> None:
    if not obj:
        out.append("{}")
        return
    append = out.append
    for key, prefix in _key_prefixes(obj):
        append(prefix)
        _encode(obj[key], out, flush)
    append("}")


_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}
_NEEDS_ESCAPE = re.compile(r'["\\\x00-\x1f\ud800-\udfff]')


def _escape(s: str) -> str:
    if _NEEDS_ESCAPE.search(s) is None:
        return '"' + s + '"'
    parts = ['"']
    for ch in s:
        if ch in _ESCAPES:
            parts.append(_ESCAPES[ch])
        elif ord(ch) < 0x20 or 0xD800 <= ord(ch) <= 0xDFFF:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def dumps_canonical(obj: Any) -> str:
    out: list[str] = []
    _encode(obj, out, None)
    out.append("\n")
    return "".join(out)


@contextlib.contextmanager
def output_file(path):
    """Open ``path`` for writing UTF-8 text with ``\\n`` line ends. If the
    block raises, the partial file is removed and the error re-raised."""
    fh = open(path, "w", encoding="utf-8", newline="\n")
    try:
        with fh:
            yield fh
    except BaseException:
        try:
            os.unlink(path)
        except OSError:
            pass
        raise


def dump_canonical(obj: Any, path) -> None:
    """Stream ``obj`` to ``path`` in canonical form, the bytes of
    ``dumps_canonical``, through ``output_file``."""
    with output_file(path) as fh:
        write = fh.write

        def flush(out: list[str]) -> None:
            write("".join(out))
            out.clear()

        out: list[str] = []
        _encode(obj, out, flush)
        out.append("\n")
        flush(out)
