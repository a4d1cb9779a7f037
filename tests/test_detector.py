"""Simulated-detector statistics, validation and determinism."""

import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade import (
    ClassTaxonomy,
    ConfidenceLaw,
    DetectorHandle,
    DetectorProfile,
    ValidationError,
    derive_general_profile,
    detect,
)
from modcascade.core import AnnotatedImage, BoundingBox, GroundTruthObject
from modcascade.detector import _pcg64_states, _stream_states, prepare

from oracles import object_rng

TAXONOMY = ClassTaxonomy({"dog": ("pekinese", "spaniel"), "planet": ("mars", "saturn")})


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
            {"fp_label_dist": {"a": math.nan, "b": 1.0}},
            {"loc_noise_sigma": math.nan},
            {"loc_noise_sigma": math.inf},
            {"confidence_law": ConfidenceLaw(spread=math.nan)},
            {"confidence_law": ConfidenceLaw(spread=math.inf)},
        ],
        ids=["confusion-nan", "confusion-inf", "fp-dist-nan", "sigma-nan", "sigma-inf",
             "spread-nan", "spread-inf"],
    )
    def test_non_finite_rejected(self, kwargs):
        fields = {"label_space": ("a", "b"), "confusion": {"a": {"a": 0.5}}, **kwargs}
        with pytest.raises(ValidationError, match="finite"):
            DetectorProfile(**fields)

    def test_negative_fp_label_dist_rejected(self):
        # sums to 1, but the -1 would hand every spurious detection to "b"
        with pytest.raises(ValidationError, match="fp_label_dist"):
            DetectorProfile(
                ("a", "b"), {"a": {"a": 1.0}}, fp_label_dist={"a": -1.0, "b": 2.0}
            )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"confusion": {"a": {"a": "0.5"}}},
            {"loc_noise_sigma": "x"},
            {"negative_fp_rate": "0.1"},
            {"fp_label_dist": {"a": "0.5", "b": 0.5}},
            {"confidence_law": ConfidenceLaw(mean_correct="0.9")},
            {"loc_noise_sigma": True},
        ],
        ids=["confusion-str", "sigma-str", "fp-rate-str", "fp-dist-str", "mean-str", "sigma-bool"],
    )
    def test_non_number_rejected(self, kwargs):
        fields = {"label_space": ("a", "b"), "confusion": {"a": {"a": 0.5}}, **kwargs}
        with pytest.raises(ValidationError):
            DetectorProfile(**fields)

    @pytest.mark.parametrize(
        "doc",
        [[], {"confusion": {}}, {"label_space": ["a"], "confusion": []},
         {"label_space": ["a"], "confusion": {"a": 0.5}}],
        ids=["not-object", "no-label-space", "confusion-list", "row-number"],
    )
    def test_malformed_json_is_validation_error(self, doc):
        with pytest.raises(ValidationError, match="malformed detector profile"):
            DetectorProfile.from_json(doc)

    def test_miss_rate_is_remainder(self):
        p = DetectorProfile(("a",), {"a": {"a": 0.7}})
        assert p.miss_rate("a") == pytest.approx(0.3)

    def test_handle_needs_profile_and_seed(self):
        prof = identity_profile(["a"])
        with pytest.raises(ValidationError):
            DetectorHandle(profile=prof)  # no seed
        with pytest.raises(ValidationError):
            DetectorHandle(seed=3)  # no profile
        with pytest.raises(ValidationError):
            DetectorHandle.simulated(prof, 1.5)

    def test_json_round_trip(self):
        p = DetectorProfile(
            ("a", "b"),
            {"a": {"a": 0.8, "b": 0.1}, "b": {"b": 0.9}},
            negative_fp_rate=0.05,
            fp_label_dist={"a": 0.25, "b": 0.75},
            loc_noise_sigma=2.0,
            confidence_law=ConfidenceLaw(0.95, 0.5, 0.1),
            correct_for={"a": "a"},
        )
        assert DetectorProfile.from_json(p.to_json()) == p


class TestSimulatedDetect:
    def test_identity_noiseless(self):
        prof = identity_profile(["pekinese", "spaniel"])
        handle = DetectorHandle.simulated(prof, seed=1)
        img = image_with("spaniel")
        dets = detect(handle, img)
        assert len(dets) == 1
        assert dets[0].label == "spaniel"
        assert dets[0].box == img.objects[0].box
        assert dets[0].confidence == 0.9  # spread 0 -> exact mean_correct

    def test_all_miss_row(self):
        prof = DetectorProfile(("pekinese", "spaniel"), {"pekinese": {}})
        handle = DetectorHandle.simulated(prof, seed=1)
        assert detect(handle, image_with("pekinese")) == []

    def test_unknown_gt_label_emits_nothing(self):
        prof = identity_profile(["pekinese"])
        handle = DetectorHandle.simulated(prof, seed=1)
        assert detect(handle, image_with("mars")) == []

    def test_confusion_frequency_converges(self):
        prof = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.88, "spaniel": 0.12}},
        )
        handle = DetectorHandle.simulated(prof, seed=42)
        wrong = total = 0
        for k in range(10_000):
            dets = detect(handle, image_with("pekinese", image_id=f"img{k:05d}"))
            assert len(dets) == 1
            total += 1
            wrong += dets[0].label == "spaniel"
        assert wrong / total == pytest.approx(0.12, abs=0.01)

    def test_miss_frequency_converges(self):
        prof = DetectorProfile(("a",), {"a": {"a": 0.9}})
        handle = DetectorHandle.simulated(prof, seed=9)
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
        handle = DetectorHandle.simulated(prof, seed=7)
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
        a = [detect(DetectorHandle.simulated(prof, seed=s), img) for s in range(64)]
        assert len({len(x) for x in a}) == 2  # both outcomes appear across seeds

    def test_boxes_stay_in_bounds_confidence_in_range(self):
        prof = DetectorProfile(
            ("a",),
            {"a": {"a": 1.0}},
            loc_noise_sigma=60.0,
            confidence_law=ConfidenceLaw(0.9, 0.6, 0.2),
        )
        handle = DetectorHandle.simulated(prof, seed=3)
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
        handle = DetectorHandle.simulated(prof, seed=11)
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
        (det,) = detect(DetectorHandle.simulated(prof, 1), image_with("pekinese"))
        assert det.confidence == 0.9
        # without the map the emission counts as wrong
        prof2 = DetectorProfile(
            ("dog",),
            {"pekinese": {"dog": 1.0}},
            confidence_law=ConfidenceLaw(mean_correct=0.9, mean_wrong=0.6, spread=0.0),
        )
        (det2,) = detect(DetectorHandle.simulated(prof2, 1), image_with("pekinese"))
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
        handle = DetectorHandle.simulated(prof, seed)
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
        assert _stream_states(handle, images) == want

    def test_empty_batch(self):
        assert _pcg64_states(b"") == []
        handle = DetectorHandle.simulated(identity_profile(["a"]), seed=1)
        prepared = prepare(handle, [])
        assert prepared == handle
        assert detect(prepared, image_with_label_a(0)) == detect(handle, image_with_label_a(0))

    def test_prepared_detect_equals_unprepared(self):
        prof = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.6, "spaniel": 0.2}, "spaniel": {"spaniel": 0.5}},
            negative_fp_rate=0.5,
            fp_label_dist={"pekinese": 0.3, "spaniel": 0.7},
            loc_noise_sigma=4.0,
        )
        handle = DetectorHandle.simulated(prof, seed=11)
        images = []
        for k in range(60):
            if k % 4 == 0:  # negative: one "negfp" stream
                images.append(AnnotatedImage(f"n{k}", 640, 480))
                continue
            labels = ("pekinese", "spaniel", "mars")[: 1 + k % 3]  # mars has no row
            objects = tuple(
                GroundTruthObject(BoundingBox(20 * j, 30, 100, 80), label)
                for j, label in enumerate(labels)
            )
            images.append(AnnotatedImage(f"p{k}", 640, 480, objects))
        prepared = prepare(handle, images)
        assert prepared == handle  # the stream table takes no part in equality
        plain = [detect(handle, img) for img in images]
        assert [detect(prepared, img) for img in images] == plain
        assert sum(map(len, plain)) > 0
        assert any(not img.objects and dets for img, dets in zip(images, plain))  # negfp fired
        assert any(len(dets) < sum(o.fine_label != "mars" for o in img.objects)
                   for img, dets in zip(images, plain))  # a miss
        # images it was not prepared for, or under a prepared id with
        # another object count, are seeded on the fly
        half = prepare(handle, images[:30])
        assert [detect(half, img) for img in images] == plain
        regrown = AnnotatedImage("n0", 640, 480, images[1].objects)
        assert detect(prepared, regrown) == detect(handle, regrown)


def image_with_label_a(k):
    return AnnotatedImage(
        id=f"a{k:05d}",
        width=800,
        height=800,
        objects=(GroundTruthObject(BoundingBox(10, 10, 100, 100), "a"),),
    )


class TestDeriveGeneralProfile:
    def test_sibling_confusion_collapses(self):
        fine = DetectorProfile(
            ("pekinese", "spaniel"),
            {"pekinese": {"pekinese": 0.88, "spaniel": 0.12}},
        )
        gen = derive_general_profile(fine, TAXONOMY)
        assert gen.confusion["dog"] == {"dog": pytest.approx(1.0)}

    def test_cross_general_confusion_survives(self):
        fine = DetectorProfile(
            ("pekinese", "mars"),
            {"pekinese": {"pekinese": 0.9, "mars": 0.1}},
        )
        gen = derive_general_profile(fine, TAXONOMY)
        assert gen.confusion["dog"]["dog"] == pytest.approx(0.9)
        assert gen.confusion["dog"]["planet"] == pytest.approx(0.1)

    def test_row_sums_preserved_random(self):
        rng = np.random.default_rng(123)
        taxonomy = ClassTaxonomy(
            {f"g{i}": (f"f{i}a", f"f{i}b") for i in range(5)}
        )
        fines = taxonomy.fine_labels
        confusion = {}
        for f in fines:
            probs = rng.dirichlet(np.ones(len(fines) + 1))  # last slot = miss
            confusion[f] = {t: float(p) for t, p in zip(fines, probs[:-1])}
        fine = DetectorProfile(fines, confusion)
        gen = derive_general_profile(fine, taxonomy)
        for g, row in gen.confusion.items():
            assert all(p >= 0 for p in row.values())
            member_miss = [
                fine.miss_rate(f) for f in taxonomy.fine_of[g]
            ]
            want_sum = 1.0 - sum(member_miss) / len(member_miss)
            assert sum(row.values()) == pytest.approx(want_sum, abs=1e-9)
            assert sum(row.values()) <= 1.0 + 1e-9

    def test_unknown_emission_rejected(self):
        fine = DetectorProfile(("zeppelin",), {"zeppelin": {"zeppelin": 1.0}})
        with pytest.raises(ValidationError):
            derive_general_profile(fine, TAXONOMY)
