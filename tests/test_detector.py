"""Simulated-detector statistics, validation and determinism."""

import math
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from modcascade import (
    ConfidenceLaw,
    DetectorHandle,
    DetectorProfile,
    ValidationError,
    detect,
)
from modcascade import detector
from modcascade._ziggurat import KI_DOUBLE, WI_DOUBLE
from modcascade.core import AnnotatedImage, BoundingBox, Detection, GroundTruthObject
from modcascade.detector import (
    _PCG_MULT,
    _lcg_step,
    _pcg64_states,
    _std_gamma,
    _std_normal,
    _stream_states,
    _xsl_rr,
    detect_all,
    prepare,
)
from modcascade.profiles import flat_profile

from conftest import taxonomy_5x2
from oracles import object_rng, ziggurat_draw, ziggurat_tables


def image_with(fine, image_id="img0", box=BoundingBox(100, 100, 200, 150)):
    return AnnotatedImage(
        id=image_id, width=800, height=800, objects=(GroundTruthObject(box, fine),)
    )


def identity_profile(labels, sigma=0.0, spread=0.0):
    return DetectorProfile(
        label_space=tuple(labels),
        confusion={l: {l: 1.0} for l in labels},
        loc_noise_sigma=sigma,
        confidence_law=ConfidenceLaw(spread=spread),
    )


class TestProfileValidation:
    def test_row_must_not_exceed_one(self):
        with pytest.raises(ValidationError, match="sums to"):
            DetectorProfile(("a",), {"a": {"a": 1.2}})

    def test_row_must_emit_within_label_space(self):
        with pytest.raises(ValidationError, match="outside the label space"):
            DetectorProfile(("a",), {"a": {"b": 0.5}})

    def test_negative_probability_rejected(self):
        with pytest.raises(ValidationError, match="negative"):
            DetectorProfile(("a", "b"), {"a": {"a": 1.1, "b": -0.1}})

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confusion": {"a": {"a": math.nan}}},
            {"confusion": {"a": {"a": math.inf}}},
            {"loc_noise_sigma": math.nan},
            {"loc_noise_sigma": math.inf},
            {"confidence_law": ConfidenceLaw(spread=math.nan)},
            {"confidence_law": ConfidenceLaw(spread=math.inf)},
        ],
        ids=["confusion-nan", "confusion-inf", "sigma-nan", "sigma-inf", "spread-nan",
             "spread-inf"],
    )
    def test_non_finite_rejected(self, kwargs):
        fields = {"label_space": ("a", "b"), "confusion": {"a": {"a": 0.5}}, **kwargs}
        with pytest.raises(ValidationError, match="finite"):
            DetectorProfile(**fields)

    @pytest.mark.parametrize("spread", [1e-200, 5e-324])
    def test_spread_too_small_for_beta_rejected(self, spread):
        # spread**2 underflows to 0: the Beta law would divide by zero
        with pytest.raises(ValidationError, match="spread"):
            ConfidenceLaw(spread=spread).validate()

    @pytest.mark.parametrize("spread, valid", [(3.72e-155, False), (3.73e-155, True), (1e-154, True)])
    def test_spread_valid_exactly_when_beta_shapes_are_finite(self, spread, valid):
        """At mean 0.5 both shapes overflow below a spread of 3.73e-155;
        at 3.73e-155 their sum is 1.797e308, still finite."""
        law = ConfidenceLaw(mean_correct=0.5, mean_wrong=0.5, spread=spread)
        if valid:
            law.validate()
            a, b = law.beta_shapes(True)
            assert math.isfinite(a + b)
        else:
            with pytest.raises(ValidationError, match="spread"):
                law.validate()

    def test_beta_shape_sum_must_be_finite(self, monkeypatch):
        """Finite shapes whose sum overflows are rejected too."""
        monkeypatch.setattr(ConfidenceLaw, "beta_shapes", lambda self, correct: (1e308, 1e308))
        with pytest.raises(ValidationError, match="Beta shape of confidence mean_correct at spread 0.08"):
            ConfidenceLaw().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confusion": {"a": {"a": "0.5"}}},
            {"loc_noise_sigma": "x"},
            {"negative_fp_rate": "0.1"},
            {"confidence_law": ConfidenceLaw(mean_correct="0.9")},
            {"loc_noise_sigma": True},
        ],
        ids=["confusion-str", "sigma-str", "fp-rate-str", "mean-str", "sigma-bool"],
    )
    def test_non_number_rejected(self, kwargs):
        fields = {"label_space": ("a", "b"), "confusion": {"a": {"a": 0.5}}, **kwargs}
        with pytest.raises(ValidationError):
            DetectorProfile(**fields)

    @pytest.mark.parametrize(
        "doc",
        [[], {"confusion": {}}, {"label_space": ["a"], "confusion": []},
         {"label_space": ["a"], "confusion": {"a": 0.5}},
         {"label_space": ["a"], "confusion": {"a": [["a", 0.5]]}},
         {"label_space": "gh", "confusion": {"g": {"g": 0.9}}},
         {"label_space": ["dog", "dog", "boat"], "confusion": {}}],
        ids=["not-object", "no-label-space", "confusion-list", "row-number", "row-pairs",
             "label-space-string", "label-space-repeat"],
    )
    def test_malformed_json_is_validation_error(self, doc):
        with pytest.raises(ValidationError, match="malformed detector profile"):
            DetectorProfile.from_json(doc)

    def test_integer_spread_beyond_a_double_squared(self):
        """A spread of 10**200 is valid: squared as an integer it would not
        convert to a double, so it is squared as the double 1e200."""
        law = ConfidenceLaw(spread=10**200)
        law.validate()
        assert law.beta_shapes(True) == ConfidenceLaw(spread=1e200).beta_shapes(True)

    def test_handle_needs_profile_and_seed(self):
        prof = identity_profile(["a"])
        with pytest.raises(TypeError):
            DetectorHandle(profile=prof)  # no seed
        with pytest.raises(TypeError):
            DetectorHandle(seed=3)  # no profile
        with pytest.raises(ValidationError):
            DetectorHandle(prof, None)
        with pytest.raises(ValidationError):
            DetectorHandle(None, 3)
        with pytest.raises(ValidationError):
            DetectorHandle(prof, 1.5)
        with pytest.raises(ValidationError):
            DetectorHandle(prof, True)

    def test_json_round_trip(self):
        p = DetectorProfile(
            ("a", "b"),
            {"a": {"a": 0.8, "b": 0.1}, "b": {"b": 0.9}},
            negative_fp_rate=0.05,
            loc_noise_sigma=2.0,
            confidence_law=ConfidenceLaw(0.95, 0.5, 0.1),
            correct_for={"a": "a"},
        )
        assert DetectorProfile.from_json(p.to_json()) == p


class TestSimulatedDetect:
    def test_identity_noiseless(self):
        prof = identity_profile(["pekinese", "spaniel"])
        handle = DetectorHandle(prof, seed=1)
        img = image_with("spaniel")
        dets = detect(handle, img)
        assert len(dets) == 1
        assert dets[0].label == "spaniel"
        assert dets[0].box == img.objects[0].box
        assert dets[0].confidence == 0.9  # spread 0 -> exact mean_correct

    def test_all_miss_row(self):
        prof = DetectorProfile(("pekinese", "spaniel"), {"pekinese": {}})
        handle = DetectorHandle(prof, seed=1)
        assert detect(handle, image_with("pekinese")) == []

    def test_unknown_gt_label_emits_nothing(self):
        prof = identity_profile(["pekinese"])
        handle = DetectorHandle(prof, seed=1)
        assert detect(handle, image_with("mars")) == []

    def test_confusion_frequency_converges(self):
        prof = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.88, "spaniel": 0.12}},
        )
        handle = DetectorHandle(prof, seed=42)
        wrong = total = 0
        for k in range(10_000):
            dets = detect(handle, image_with("pekinese", image_id=f"img{k:05d}"))
            assert len(dets) == 1
            total += 1
            wrong += dets[0].label == "spaniel"
        assert wrong / total == pytest.approx(0.12, abs=0.01)

    def test_miss_frequency_converges(self):
        prof = DetectorProfile(("a",), {"a": {"a": 0.9}})
        handle = DetectorHandle(prof, seed=9)
        miss = 0
        n = 8000
        for k in range(n):
            if not detect(handle, image_with_label_a(k)):
                miss += 1
        p = 0.1
        assert abs(miss / n - p) < 4 * math.sqrt(p * (1 - p) / n)

    def test_determinism_bit_exact(self):
        prof = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.7, "spaniel": 0.2}},
            loc_noise_sigma=3.0,
            confidence_law=ConfidenceLaw(),
        )
        handle = DetectorHandle(prof, seed=7)
        imgs = [image_with("pekinese", image_id=f"i{k}") for k in range(50)]
        first = [detect(handle, img) for img in imgs]
        second = [detect(handle, img) for img in reversed(imgs)][::-1]
        assert first == second
        with ThreadPoolExecutor(max_workers=4) as pool:
            third = list(pool.map(lambda im: detect(handle, im), imgs))
        assert first == third

    def test_seed_changes_stream(self):
        prof = DetectorProfile(("a",), {"a": {"a": 0.5}})
        img = image_with_label_a(0)
        a = [detect(DetectorHandle(prof, seed=s), img) for s in range(64)]
        assert len({len(x) for x in a}) == 2  # both outcomes appear across seeds

    def test_boxes_stay_in_bounds_confidence_in_range(self):
        prof = DetectorProfile(
            ("a",),
            {"a": {"a": 1.0}},
            loc_noise_sigma=60.0,
            confidence_law=ConfidenceLaw(0.9, 0.6, 0.2),
        )
        handle = DetectorHandle(prof, seed=3)
        edge_box = BoundingBox(700, 700, 99, 99)
        for k in range(500):
            img = AnnotatedImage(
                id=f"e{k}",
                width=800,
                height=800,
                objects=(GroundTruthObject(edge_box, "a"),),
            )
            (det,) = detect(handle, img)
            assert det.box.x >= 0 and det.box.y >= 0
            assert det.box.x + det.box.w <= 800 + 1e-9
            assert det.box.y + det.box.h <= 800 + 1e-9
            assert det.box.w > 0 and det.box.h > 0
            assert 0.0 <= det.confidence <= 1.0

    def test_negative_image_fp_rate(self):
        prof = DetectorProfile(
            ("a", "b"),
            {"a": {"a": 1.0}},
            negative_fp_rate=0.25,
        )
        handle = DetectorHandle(prof, seed=11)
        n = 8000
        hits = 0
        for k in range(n):
            dets = detect(handle, AnnotatedImage(id=f"n{k}", width=640, height=480))
            assert len(dets) <= 1
            if dets:
                hits += 1
                assert dets[0].label in ("a", "b")
                assert dets[0].box.x + dets[0].box.w <= 640 + 1e-9
        assert abs(hits / n - 0.25) < 4 * math.sqrt(0.25 * 0.75 / n)

    def test_correct_for_drives_confidence(self):
        # a general-class detector: fine GT, general emission, spread 0
        prof = DetectorProfile(
            ("dog",),
            {"pekinese": {"dog": 1.0}},
            confidence_law=ConfidenceLaw(mean_correct=0.9, mean_wrong=0.6, spread=0.0),
            correct_for={"pekinese": "dog"},
        )
        (det,) = detect(DetectorHandle(prof, 1), image_with("pekinese"))
        assert det.confidence == 0.9
        # without the map the emission counts as wrong
        prof2 = DetectorProfile(
            ("dog",),
            {"pekinese": {"dog": 1.0}},
            confidence_law=ConfidenceLaw(mean_correct=0.9, mean_wrong=0.6, spread=0.0),
        )
        (det2,) = detect(DetectorHandle(prof2, 1), image_with("pekinese"))
        assert det2.confidence == 0.6


# entropies SeedSequence stores in fewer than four 32-bit words
SHORT_ENTROPIES = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96 - 1, 2**96, 2**128 - 1]


def _pcg64_state(gen: np.random.Generator) -> tuple[int, int]:
    state = gen.bit_generator.state["state"]
    return state["state"], state["inc"]


class TestVectorisedSeeding:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**128 - 1), max_size=40))
    def test_states_equal_numpy_seeding(self, entropies):
        entropies = entropies + SHORT_ENTROPIES
        got = _pcg64_states(b"".join(e.to_bytes(16, "little") for e in entropies))
        assert got == [_pcg64_state(np.random.Generator(np.random.PCG64(e))) for e in entropies]

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**64 - 1),
        counts=st.lists(st.integers(0, 6), max_size=8),
        fp_rate=st.sampled_from([0.0, 0.5]),
    )
    def test_stream_states_equal_object_rng(self, seed, counts, fp_rate):
        prof = DetectorProfile(("a",), {"a": {"a": 0.9}}, negative_fp_rate=fp_rate)
        handle = DetectorHandle(prof, seed)
        images = [
            AnnotatedImage(
                f"im{k}", 800, 800,
                tuple(GroundTruthObject(BoundingBox(10, 10, 50, 50), "a") for _ in range(n)),
            )
            for k, n in enumerate(counts)
        ]
        want = []
        for img in images:
            if img.objects:
                tags = range(len(img.objects))
            else:
                tags = ["negfp"] if fp_rate > 0 else []
            want.append(tuple(_pcg64_state(object_rng(seed, img.id, t)) for t in tags))
        assert [_stream_states(handle, img) for img in images] == want

    def test_empty_batch(self):
        assert _pcg64_states(b"") == []
        handle = DetectorHandle(identity_profile(["a"]), seed=1)
        assert prepare(handle, []) == []
        assert detect_all(handle, []) == []

    def test_prepared_detect_equals_unprepared(self):
        prof = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.6, "spaniel": 0.2}, "spaniel": {"spaniel": 0.5}},
            negative_fp_rate=0.5,
            loc_noise_sigma=4.0,
        )
        handle = DetectorHandle(prof, seed=11)
        images = []
        for k in range(60):
            if k % 4 == 0:  # negative: one "negfp" stream
                images.append(AnnotatedImage(f"n{k}", 640.0, 480.0))
                continue
            labels = ("pekinese", "spaniel", "mars")[: 1 + k % 3]  # mars has no row
            objects = tuple(
                GroundTruthObject(BoundingBox(20 * j, 30, 100, 80), label)
                for j, label in enumerate(labels)
            )
            images.append(AnnotatedImage(f"p{k}", 640.0, 480.0, objects))
        prepared = prepare(handle, images)
        assert len(prepared) == len(images)
        plain = [detect(handle, img) for img in images]
        assert [detect(handle, img, found) for img, found in zip(images, prepared)] == plain
        assert detect_all(handle, images) == list(map(tuple, plain))
        assert sum(map(len, plain)) > 0
        assert any(not img.objects and dets for img, dets in zip(images, plain))  # negfp fired
        assert any(len(dets) < sum(o.fine_label != "mars" for o in img.objects)
                   for img, dets in zip(images, plain))  # a miss
        # an image's entry does not depend on the rest of the pass
        assert prepare(handle, images[:30]) == prepared[:30]


def image_with_label_a(k):
    return AnnotatedImage(
        id=f"a{k:05d}",
        width=800,
        height=800,
        objects=(GroundTruthObject(BoundingBox(10, 10, 100, 100), "a"),),
    )


def _raw_outputs(states, n):
    """The next ``n`` outputs of each PCG64 ``(state, inc)`` on the batch's arrays."""
    hi = np.array([s >> 64 for s, _ in states], dtype=np.uint64)
    lo = np.array([s & (2**64 - 1) for s, _ in states], dtype=np.uint64)
    inc_hi = np.array([i >> 64 for _, i in states], dtype=np.uint64)
    inc_lo = np.array([i & (2**64 - 1) for _, i in states], dtype=np.uint64)
    out = []
    for _ in range(n):
        hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
        out.append(_xsl_rr(hi, lo))
    return np.stack(out, axis=1)


def _pcg64_at(state: int, inc: int) -> np.random.PCG64:
    bitgen = np.random.PCG64(0)
    bitgen.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                    "has_uint32": 0, "uinteger": 0}
    return bitgen


def _random_states(rng, n):
    """Random PCG64 ``(state, inc)`` pairs; an increment is always odd."""
    words = rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64).tolist()
    return [(a << 64 | b, (c << 64 | d) | 1) for a, b, c, d in words]


def _crowded_images(n_images, seed=0):
    """Images of 6 to 10 objects of mixed classes, like the crowded benchmark."""
    fines = taxonomy_5x2().fine_labels
    rng = np.random.default_rng(seed)
    images = []
    for k in range(n_images):
        objects = []
        for _ in range(int(rng.integers(6, 11))):
            w, h = rng.uniform(40.0, 200.0, 2).tolist()
            x, y = float(rng.uniform(0.0, 800.0 - w)), float(rng.uniform(0.0, 800.0 - h))
            objects.append(GroundTruthObject(BoundingBox(x, y, w, h), fines[rng.integers(10)]))
        images.append(AnnotatedImage(f"c{k:04d}", 800.0, 800.0, tuple(objects)))
    return images


def _prepare_counting_draws(handle, images, monkeypatch):
    """``prepare``'s entries, and how many streams it left to the scalar ``_draw``."""
    calls = []
    scalar_draw = detector._draw
    monkeypatch.setattr(detector, "_draw", lambda *args: calls.append(1) or scalar_draw(*args))
    prepared = prepare(handle, images)
    monkeypatch.undo()
    return prepared, len(calls)


LABELS = ("a", "b", "c")


@st.composite
def batch_profiles(draw):
    """Profiles whose streams reach every scalar fallback: box noise from 0
    to 40 px (ziggurat wedges and tails), Beta shapes above and at most 1,
    means of 0 and 1, rows that miss, a class without a row, and spurious
    detections on negative images."""
    rows = {}
    for true in draw(st.lists(st.sampled_from(LABELS), unique=True, max_size=3)):
        probs = draw(st.lists(st.floats(0.0, 1.0), min_size=3, max_size=3))
        total = max(sum(probs), 1.0) * draw(st.sampled_from([1.0, 1.25]))
        rows[true] = {label: p / total for label, p in zip(LABELS, probs)}
    mean = st.one_of(st.sampled_from([0.0, 1.0, 0.5, 0.9]), st.floats(0.05, 0.95))
    return DetectorProfile(
        label_space=LABELS,
        confusion=rows,
        negative_fp_rate=draw(st.sampled_from([0.0, 0.5])),
        loc_noise_sigma=draw(st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 40.0))),
        confidence_law=ConfidenceLaw(
            mean_correct=draw(mean),
            mean_wrong=draw(mean),
            spread=draw(st.one_of(st.sampled_from([0.0, 0.08, 0.28]), st.floats(1e-150, 0.6))),
        ),
        correct_for=draw(st.sampled_from([None, {"a": "b"}])),
    )


@st.composite
def batch_images(draw):
    boxes = st.tuples(
        st.floats(0.0, 500.0), st.floats(0.0, 400.0), st.floats(1.0, 300.0), st.floats(1.0, 200.0)
    )
    objects = st.lists(
        st.builds(
            GroundTruthObject,
            st.builds(lambda b: BoundingBox(*b), boxes),
            st.sampled_from(LABELS + ("unseen",)),
        ),
        max_size=10,
    )
    counts = draw(st.lists(objects, min_size=1, max_size=6))
    # int and float widths and heights, mixed in one batch
    return [
        AnnotatedImage(
            f"im{k}", draw(st.sampled_from([800.0, 800])), draw(st.sampled_from([600.0, 600])),
            tuple(objs),
        )
        for k, objs in enumerate(counts)
    ]


class TestBatchedDraws:
    def test_ziggurat_tables_equal_installed_numpy(self):
        wi, ki = ziggurat_tables()
        assert wi == list(WI_DOUBLE)
        assert ki == list(KI_DOUBLE)

    def test_outputs_equal_random_raw(self):
        states = _random_states(np.random.default_rng(3), 2000)
        got = _raw_outputs(states, 9)
        for (state, inc), row in zip(states, got.tolist()):
            assert row == _pcg64_at(state, inc).random_raw(9).tolist()

    def test_normal_fast_path_equals_numpy(self):
        # every entry at the edge of its fast path, then random outputs
        outputs = []
        for idx, ki in enumerate(KI_DOUBLE):
            for rabs in {0, 1, max(ki - 1, 0), ki, min(ki + 1, 2**52 - 1)}:
                outputs += [rabs << 9 | idx, rabs << 9 | 1 << 8 | idx]
        outputs += np.random.default_rng(4).integers(0, 2**64, 20_000, dtype=np.uint64).tolist()
        x, fast = _std_normal(np.array(outputs, dtype=np.uint64))
        gen = np.random.Generator(np.random.PCG64(0))
        for r, got, got_fast in zip(outputs, x.tolist(), fast.tolist()):
            want, want_fast = ziggurat_draw(gen, r)
            assert got_fast == want_fast, hex(r)
            if got_fast:
                assert repr(got) == repr(want), hex(r)
        assert 0 < int(np.count_nonzero(~fast)) < len(outputs) // 10

    @pytest.mark.parametrize("shape", [1.02, 1.5, 11.75])
    def test_gamma_first_trial_equals_numpy(self, shape):
        """The batch accepts exactly when numpy's gamma returns after one
        normal and one uniform draw, and then with the same value."""
        states = _random_states(np.random.default_rng(int(shape * 100)), 4000)
        raw = _raw_outputs(states, 2)
        b = np.full(len(states), shape - 1.0 / 3.0)
        c = 1.0 / np.sqrt(9 * b)
        got, ok = _std_gamma(b, c, raw[:, 0], raw[:, 1])
        for (state, inc), g, accepted in zip(states, got.tolist(), ok.tolist()):
            bitgen = _pcg64_at(state, inc)
            want = np.random.Generator(bitgen).standard_gamma(shape)
            after_two = (((state * _PCG_MULT + inc) * _PCG_MULT) + inc) % (1 << 128)
            assert accepted == (bitgen.state["state"]["state"] == after_two)
            if accepted:
                assert g == want
        # both sides of the test occur: the first trial mostly accepts
        assert 0 < int(np.count_nonzero(~ok)) < len(states) // 5

    @pytest.mark.parametrize("sigma", [0.0, 1.0])
    def test_crowded_batch_takes_both_paths(self, sigma, monkeypatch):
        taxonomy = taxonomy_5x2()
        handle = DetectorHandle(
            flat_profile(taxonomy, error_rate=0.12, loc_noise_sigma=sigma), seed=5
        )
        images = _crowded_images(150)
        prepared, scalar = _prepare_counting_draws(handle, images, monkeypatch)
        assert 0 < scalar <= 0.2 * sum(len(img.objects) for img in images)
        assert all(type(d) is Detection for found in prepared for d in found)
        assert repr([detect(handle, img, found) for img, found in zip(images, prepared)]) == repr(
            [detect(handle, img) for img in images]
        )

    @settings(max_examples=150, deadline=None)
    @given(
        profile=batch_profiles(), images=batch_images(), seed=st.integers(0, 2**64 - 1),
        chunk=st.integers(1, 8),
    )
    # an integer-size image whose box is clamped to 40.0 x 30.0; its row's
    # first cumulative sum is the stream's label uniform, on which
    # bisect_right and bisect_left part
    @example(
        profile=DetectorProfile(
            ("a", "b"), {"a": {"a": 0.034645174008699486, "b": 1.0 - 0.034645174008699486}},
            loc_noise_sigma=500.0,
        ),
        images=[AnnotatedImage("im0", 40, 30, (GroundTruthObject(BoundingBox(0, 0, 39, 29), "a"),))],
        seed=10, chunk=8,
    )
    # an integer-size negative image, its spurious box drawn from 40 x 30
    @example(
        profile=DetectorProfile(("a", "b"), {}, negative_fp_rate=1.0),
        images=[AnnotatedImage("n0", 40, 30)],
        seed=10, chunk=8,
    )
    def test_prepared_equals_scalar(self, profile, images, seed, chunk):
        """The batch gives the scalar path's detections, also when a pass
        is cut into batches of ``chunk`` streams, one of which may hold
        only images without streams."""
        handle = DetectorHandle(profile, seed)
        with mock.patch.object(detector, "_CHUNK", chunk):
            # reprs tell -0.0 from 0.0, which == does not
            assert repr(detect_all(handle, images)) == repr(
                [tuple(detect(handle, img)) for img in images]
            )

    def test_spread_at_the_shape_limit_agrees_with_scalar(self, monkeypatch):
        """At spread 3.73e-155 and mean 0.5, ``9 * ba`` overflows, so
        Marsaglia-Tsang's ``c`` is 0 on both paths, and they still agree."""
        law = ConfidenceLaw(mean_correct=0.5, mean_wrong=0.6, spread=3.73e-155)
        profile = flat_profile(taxonomy_5x2(), error_rate=0.3, confidence_law=law)
        handle = DetectorHandle(profile, seed=11)
        images = _crowded_images(40)
        _, scalar = _prepare_counting_draws(handle, images, monkeypatch)
        assert 0 < scalar <= 0.2 * sum(len(img.objects) for img in images)
        assert repr(detect_all(handle, images)) == repr([tuple(detect(handle, img)) for img in images])

    def test_int_extent_left_to_scalar_path(self, monkeypatch):
        """An image of integer size is drawn in the batch too, and both
        paths clamp its box to the float extent 40.0 x 30.0."""
        prof = DetectorProfile(("a",), {"a": {"a": 1.0}}, loc_noise_sigma=500.0)
        handle = DetectorHandle(prof, seed=2)
        img = AnnotatedImage("wide", 40, 30, (GroundTruthObject(BoundingBox(0, 0, 39, 29), "a"),))
        (found,), scalar = _prepare_counting_draws(handle, [img], monkeypatch)
        assert scalar == 0 and len(found) == 1  # drawn in the batch
        dets = detect(handle, img, found)
        assert repr(dets) == repr(detect(handle, img))
        assert repr((dets[0].box.w, dets[0].box.h)) == "(40.0, 30.0)"
