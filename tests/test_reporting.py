"""Canonical JSON writer: escaping, number forms, exact-type fast paths,
boxes and detections, the streamed file writer and lazily built lists."""

import json
import math
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade import BoundingBox, Detection, reporting
from modcascade.reporting import LazyList, dump_canonical, dumps_canonical

from oracles import char_loop_escape, det_json

# characters every escaping rule touches, plus some that pass through
_SPECIAL = [
    '"', "\\", "\b", "\f", "\n", "\r", "\t", "\x00", "\x1f", "\x7f", "é", "中", "😀", "a", " ",
]
_TEXT = st.text(alphabet=st.sampled_from(_SPECIAL) | st.characters(), max_size=40)
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


class TestStrings:
    @pytest.mark.parametrize("s", ["", "plain", *_SPECIAL, 'a"b\\c\bd\fe\x00f\x1fg\x7fh é'])
    def test_fixed_strings(self, s):
        assert dumps_canonical(s) == char_loop_escape(s) + "\n"

    @settings(max_examples=300, deadline=None)
    @given(s=_TEXT)
    def test_values_and_keys_match_char_loop(self, s):
        lit = char_loop_escape(s)
        assert dumps_canonical(s) == lit + "\n"
        assert dumps_canonical({s: [s]}) == "{" + lit + ":[" + lit + "]}\n"

    def test_control_characters_use_unicode_escapes(self):
        assert dumps_canonical("\b\f\x00\x1f\x7f") == '"\\u0008\\u000c\\u0000\\u001f\x7f"\n'


class TestValues:
    @settings(max_examples=200, deadline=None)
    @given(x=_FINITE)
    def test_numpy_float_encodes_like_float(self, x):
        assert dumps_canonical(np.float64(x)) == dumps_canonical(x) == format(x, ".17g") + "\n"

    def test_bool_none_int_tuple(self):
        doc = {"b": (True, False, None), "i": [0, -3, 2**70], "t": (1.5, "x", ())}
        assert dumps_canonical(doc) == (
            '{"b":[true,false,null],"i":[0,-3,1180591620717411303424],"t":[1.5,"x",[]]}\n'
        )

    def test_subclasses_take_the_fallback(self):
        class Count(int):
            pass

        class Label(str):
            pass

        doc = {Label("k"): [Count(7), Label('q"'), np.float64(0.1), {}]}
        assert dumps_canonical(doc) == '{"k":[7,"q\\"",0.10000000000000001,{}]}\n'

    def test_keys_sorted_separators_fixed(self):
        assert dumps_canonical({"b": 1, "a": [2.0, 0.1]}) == '{"a":[2,0.10000000000000001],"b":1}\n'

    @pytest.mark.parametrize(
        "bad", [math.nan, math.inf, -math.inf, np.float64("nan"), np.float64("inf")]
    )
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            dumps_canonical({"x": [bad]})

    def test_non_string_key_and_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            dumps_canonical({1: 2})
        with pytest.raises(TypeError):
            dumps_canonical({"x": {1, 2}})


# every number a box or confidence may hold: finite doubles (-0.0,
# subnormals and +-max among them), ints that a double holds exactly,
# and numpy doubles
_NUMBER = (
    _FINITE
    | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                       -1.7976931348623157e308])
    | st.integers(-(2**53), 2**53)
    | _FINITE.map(np.float64)
)
_BOXES = st.builds(BoundingBox, _NUMBER, _NUMBER, _NUMBER, _NUMBER)


class TestBoxesAndDetections:
    """The writer renders a ``BoundingBox`` and a ``Detection`` itself,
    with the bytes of the list and dict they were once written as."""

    @settings(max_examples=300, deadline=None)
    @given(box=_BOXES, label=_TEXT, confidence=_NUMBER)
    def test_same_bytes_as_the_list_and_dict(self, box, label, confidence):
        det = Detection(box, label, confidence)
        assert dumps_canonical(box) == dumps_canonical([box.x, box.y, box.w, box.h])
        assert dumps_canonical(det) == dumps_canonical(det_json(det))
        assert dumps_canonical([det, box]) == dumps_canonical([det_json(det), det_json(det)["box"]])

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize("field", ["x", "y", "w", "h", "confidence"])
    def test_non_finite_number_rejected(self, tmp_path, field, bad):
        values = {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "confidence": 0.5, field: bad}
        box = BoundingBox(values["x"], values["y"], values["w"], values["h"])
        det = Detection(box, "dog", values["confidence"])
        path = tmp_path / "report.json"
        for doc in ([det], [box]) if field != "confidence" else ([det],):
            with pytest.raises(ValueError, match="non-finite"):
                dumps_canonical(doc)
            with pytest.raises(ValueError, match="non-finite"):
                dump_canonical({"images": [doc]}, path)
            assert not path.exists()


# nested documents of every kind the encoder takes, including lazy lists
_SCALARS = (
    st.none() | st.booleans() | st.integers() | _FINITE | _TEXT
    | _FINITE.map(np.float64) | _BOXES | st.builds(Detection, _BOXES, _TEXT, _NUMBER)
)
_DOCS = st.recursive(
    _SCALARS,
    lambda kids: (
        st.lists(kids, max_size=6)
        | st.lists(kids, max_size=6).map(tuple)
        | st.lists(kids, max_size=6).map(lambda items: LazyList(items, lambda x: x))
        | st.dictionaries(_TEXT, kids, max_size=6)
    ),
    max_leaves=40,
)


class TestStreamedWriter:
    @settings(max_examples=100, deadline=None)
    @given(doc=_DOCS)
    def test_one_fragment_chunks_write_the_same_bytes(self, doc, tmp_path_factory):
        path = tmp_path_factory.getbasetemp() / "streamed.json"
        with mock.patch.object(reporting, "_FLUSH_FRAGMENTS", 1):
            dump_canonical(doc, path)
        written = path.read_bytes()
        path.unlink()
        assert written == dumps_canonical(doc).encode("utf-8")

    def test_lazy_list_encodes_like_a_list_on_every_pass(self):
        built = []

        def build(k):
            built.append(k)
            return {"k": k, "v": [k / 2, str(k)]}

        lazy = LazyList(range(3), build)
        eager = [build(k) for k in range(3)]
        assert dumps_canonical({"x": lazy}) == dumps_canonical({"x": eager})
        assert dumps_canonical({"x": lazy}) == dumps_canonical({"x": eager})
        assert built == [0, 1, 2] * 3

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"x": {1, 2}}, "unserializable"),
            ([LazyList([1], lambda k: {k})], "unserializable"),
            ({"a": {1: 2}}, "non-string key"),
            ([{"b": 0}, {"b": 1, 2: 3}], "non-string key|not supported"),
        ],
    )
    def test_sets_and_non_string_keys_still_rejected(self, tmp_path, bad, message):
        with pytest.raises(TypeError, match=message):
            dumps_canonical(bad)
        with pytest.raises(TypeError, match=message):
            dump_canonical(bad, tmp_path / "bad.json")
        assert not (tmp_path / "bad.json").exists()

    @pytest.mark.parametrize("bad, error", [(math.nan, ValueError), ({1, 2}, TypeError)])
    def test_failed_write_leaves_no_file(self, tmp_path, bad, error):
        """A fault past the first flush: the partial file, which already
        holds bytes, is removed."""
        doc = {"a": [[1.5]] * (2 * reporting._FLUSH_FRAGMENTS), "b": [{"x": bad}]}
        path = tmp_path / "report.json"
        sizes = []
        unlink = os.unlink

        def spy(p):
            sizes.append(os.path.getsize(p))
            unlink(p)

        with mock.patch.object(reporting.os, "unlink", spy), pytest.raises(error):
            dump_canonical(doc, path)
        assert sizes and sizes[0] > 0
        assert not path.exists()

    def test_lone_surrogate_is_escaped(self, tmp_path):
        """UTF-8 cannot encode a lone surrogate, so the writer escapes it
        and the file reads back as the same document."""
        doc = {"\udc80": ["a\ud800b", "\ud83d\ude00"]}
        path = tmp_path / "report.json"
        dump_canonical(doc, path)
        assert path.read_bytes() == b'{"\\udc80":["a\\ud800b","\\ud83d\\ude00"]}\n'
        assert path.read_bytes() == dumps_canonical(doc).encode("ascii")
        assert json.loads(path.read_text()) == {"\udc80": ["a\ud800b", "\U0001f600"]}

    def test_failed_write_over_an_old_file_leaves_none(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("old")
        with pytest.raises(ValueError):
            dump_canonical([math.inf], path)
        assert not path.exists()

    def test_memory_does_not_grow_with_the_document(self, tmp_path):
        """About 2 MB of small dicts: the writer's traced peak stays under
        a quarter of the output (joining the whole text first needed about
        nine times it)."""
        doc = {
            "images": [
                {"id": f"im{k:05d}", "box": [k + 0.25, k / 3, 12.5, 1 / (k + 1)], "n": k}
                for k in range(24_000)
            ]
        }
        path = tmp_path / "doc.json"
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            dump_canonical(doc, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 2_000_000
        assert path.read_bytes() == dumps_canonical(doc).encode("utf-8")
        assert peak - base < size / 4
