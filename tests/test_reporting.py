"""Canonical JSON writer: escaping, number forms, exact-type fast paths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade.reporting import dumps_canonical

from oracles import char_loop_escape

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
