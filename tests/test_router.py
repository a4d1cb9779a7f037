"""Cascade routing: dispatch semantics, counters, v1/v2 relationships."""

import pytest

from modcascade import (
    ClassTaxonomy,
    ConfidenceLaw,
    DetectorHandle,
    DetectorProfile,
    RoutingConfig,
    ValidationError,
    compare_tree_vs_flat,
    detector,
    evaluate_run,
    make_dataset,
    route_v1,
    route_v2,
)
from modcascade.core import AnnotatedImage, BoundingBox, GroundTruthObject
from modcascade.profiles import stage1_profile, stage2_profiles

from conftest import synth_dataset, taxonomy_5x2


def perfect_handles(taxonomy, seed=0, tau_conf_spread=0.0):
    s1 = DetectorHandle.simulated(
        stage1_profile(taxonomy, error_rate=0.0, miss_rate=0.0,
                       confidence_law=ConfidenceLaw(spread=tau_conf_spread)),
        seed,
    )
    s2 = {
        g: DetectorHandle.simulated(p, seed + 1000 + i)
        for i, (g, p) in enumerate(
            stage2_profiles(taxonomy, error_rate=0.0,
                            confidence_law=ConfidenceLaw(spread=tau_conf_spread)).items()
        )
    }
    return s1, s2


def final_detections(trace):
    """Each image's final detections, after checking that its stage-2
    results are aligned with its invoked generals and that the final
    detections are their concatenation in that order."""
    for t in trace.images:
        assert len(t.stage2) == len(t.invoked)
        assert t.invoked == tuple(sorted(t.invoked))
        assert t.detections == tuple(d for dets in t.stage2 for d in dets)
    return [t.detections for t in trace.images]


def assert_stage2_scoped(trace, taxonomy):
    """Each stage-2 result holds only labels of the general it is aligned with."""
    for t in trace.images:
        for g, dets in zip(t.invoked, t.stage2, strict=True):
            assert all(d.label in taxonomy.fine_of[g] for d in dets)


# a stage-1 detector blind to one general, and a "dog" stage-2 detector
# that also emits a fine label of "boat"
_NO_BIKE = ClassTaxonomy({g: f for g, f in taxonomy_5x2().fine_of.items() if g != "bike"})
_STAGE1_WITHOUT_BIKE = DetectorHandle.simulated(stage1_profile(_NO_BIKE, 0.0), 0)
_DOG_WITH_KAYAK = DetectorHandle.simulated(
    DetectorProfile(("pekinese", "spaniel", "kayak"), {"pekinese": {"pekinese": 1.0}}), 0
)

# (stage 1, stage 2) -> the same handles with one rule of the cascade's
# contract broken; and the error's wording
BROKEN_CONTRACTS = {
    "stage2-extra-general": (
        lambda s1, s2: (s1, {**s2, "cat": s2["dog"]}),
        r"stage-2 profiles must cover exactly the general classes; these differ: \['cat'\]",
    ),
    "stage2-label-space-holds-another-generals-fine": (
        lambda s1, s2: (s1, {**s2, "dog": _DOG_WITH_KAYAK}),
        "stage-2 profile for 'dog' must emit exactly",
    ),
    "stage1-label-space-misses-a-general": (
        lambda s1, s2: (_STAGE1_WITHOUT_BIKE, s2),
        "stage-1 profile must emit exactly the general labels",
    ),
}


class TestRouteV1:
    def test_noiseless_end_to_end(self, taxonomy):
        img = AnnotatedImage(
            "one", 800, 800, (GroundTruthObject(BoundingBox(50, 60, 100, 120), "pekinese"),)
        )
        ds = make_dataset(taxonomy, [img])
        s1, s2 = perfect_handles(taxonomy)
        out = route_v1(ds, s1, s2, RoutingConfig(tau=0.5, mode="v1"))
        (dets,) = final_detections(out)
        assert [d.label for d in dets] == ["pekinese"]
        assert dets[0].box == img.objects[0].box
        assert out.stage1_inferences == 1
        assert out.stage2_inferences == 1
        assert out.images[0].triggered == ("dog",)

    def test_tau_one_blocks_all(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=3, negatives=2)
        s1, s2 = perfect_handles(taxonomy)  # confidences are exactly 0.9
        out = route_v1(ds, s1, s2, RoutingConfig(tau=1.0, mode="v1"))
        assert out.stage2_inferences == 0
        assert tuple(final_detections(out)) == ((),) * len(ds.images)
        assert out.stage1_inferences == len(ds.images)

    def test_missing_stage2_network(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=1)
        s1, s2 = perfect_handles(taxonomy)
        del s2["dog"]
        with pytest.raises(ValidationError, match="dog"):
            route_v1(ds, s1, s2, RoutingConfig())

    def test_wrong_mode_rejected(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=1)
        s1, s2 = perfect_handles(taxonomy)
        with pytest.raises(ValidationError):
            route_v1(ds, s1, s2, RoutingConfig(mode="v2"))

    @pytest.mark.parametrize(
        "break_contract, message", list(BROKEN_CONTRACTS.values()), ids=list(BROKEN_CONTRACTS)
    )
    def test_broken_contract_fails_before_any_detection(
        self, taxonomy, monkeypatch, break_contract, message
    ):
        ds = synth_dataset(taxonomy, per_fine=1)
        s1, s2 = break_contract(*perfect_handles(taxonomy))
        calls = []
        detect = detector.detect

        def counting_detect(handle, image, *args):
            calls.append(image.id)
            return detect(handle, image, *args)

        monkeypatch.setattr(detector, "detect", counting_detect)
        with pytest.raises(ValidationError, match=message):
            route_v1(ds, s1, s2, RoutingConfig())
        assert calls == []

    def test_perfect_stage1_equivalence(self, taxonomy):
        # noiseless, miss-free stage 1 at tau=0: each positive image
        # reaches exactly the networks of its ground-truth generals
        ds = synth_dataset(taxonomy, per_fine=10, negatives=5)
        s1, s2 = perfect_handles(taxonomy)
        out = route_v1(ds, s1, s2, RoutingConfig(tau=0.0, mode="v1"))
        final_detections(out)
        assert_stage2_scoped(out, taxonomy)
        for t, img in zip(out.images, ds.images):
            want = tuple(sorted({taxonomy.general_of(o.fine_label) for o in img.objects}))
            assert t.invoked == want

    def test_tau_monotonicity(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=6, negatives=3)
        prof1 = stage1_profile(
            taxonomy, error_rate=0.15, miss_rate=0.1,
            confidence_law=ConfidenceLaw(0.9, 0.6, 0.15),
        )
        s1 = DetectorHandle.simulated(prof1, 3)
        s2 = {g: DetectorHandle.simulated(p, 4) for g, p in stage2_profiles(taxonomy, 0.1).items()}
        prev = None
        for tau in (0.95, 0.8, 0.6, 0.4, 0.0):  # decreasing tau -> growing sets
            out = route_v1(ds, s1, s2, RoutingConfig(tau=tau, mode="v1"))
            invoked = {img.id: set(t.invoked) for img, t in zip(ds.images, out.images)}
            if prev is not None:
                for image_id in invoked:
                    assert prev[image_id] <= invoked[image_id]
            prev = invoked

    def test_label_scoping(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=10, negatives=5)
        prof1 = stage1_profile(taxonomy, error_rate=0.2, miss_rate=0.1)
        s1 = DetectorHandle.simulated(prof1, 21)
        s2 = {g: DetectorHandle.simulated(p, 22) for g, p in stage2_profiles(taxonomy, 0.2).items()}
        out = route_v1(ds, s1, s2, RoutingConfig(tau=0.5, mode="v1"))
        assert_stage2_scoped(out, taxonomy)
        for t, dets in zip(out.images, final_detections(out), strict=True):
            scope = {f for g in t.invoked for f in taxonomy.fine_of[g]}
            for d in dets:
                assert d.label in scope

    def test_selectivity_bound(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=10, negatives=10)
        prof1 = stage1_profile(taxonomy, error_rate=0.3, miss_rate=0.0, negative_fp_rate=0.5)
        s1 = DetectorHandle.simulated(prof1, 8)
        s2 = {g: DetectorHandle.simulated(p, 9) for g, p in stage2_profiles(taxonomy, 0.1).items()}
        out = route_v1(ds, s1, s2, RoutingConfig(tau=0.0, mode="v1"))
        final_detections(out)
        n_generals = len(taxonomy.generals)
        for t in out.images:
            assert len(t.invoked) <= n_generals
        tree = out.stage1_inferences + out.stage2_inferences
        assert tree <= out.stage1_inferences * (1 + n_generals)


def composite_error(dataset, out, iou_threshold=0.5):
    report = evaluate_run(dataset.images, final_detections(out), dataset.taxonomy,
                          iou_threshold=iou_threshold)
    return report.classification_error, report.matched_count


class TestCompositionOracle:
    def test_v1_composite_error_matches_closed_form(self, taxonomy):
        # independent composition oracle: misroutes always yield a wrong
        # label, correct routes err at the stage-2 rate, misses drop out
        # of the matched set, so err_v1 = e1 + (1 - e1) * e2
        e1, m1, e2 = 0.0225, 0.02, 0.023
        ds = synth_dataset(taxonomy, per_fine=200, negatives=100, seed=2)
        s1 = DetectorHandle.simulated(stage1_profile(taxonomy, e1, m1, loc_noise_sigma=1.5), 31)
        s2 = {
            g: DetectorHandle.simulated(p, 32)
            for g, p in stage2_profiles(taxonomy, e2, loc_noise_sigma=1.0).items()
        }
        out = route_v1(ds, s1, s2, RoutingConfig(tau=0.5, mode="v1"))
        err, matched = composite_error(ds, out)
        expected = e1 + (1 - e1) * e2
        assert expected == pytest.approx(0.045, abs=0.0005)
        assert err == pytest.approx(expected, abs=0.01)  # +/- 1 point tolerance


class TestRouteV2:
    def _recovery_setup(self):
        taxonomy = ClassTaxonomy({"dog": ("pekinese", "spaniel")})
        box = BoundingBox(100, 100, 200, 200)
        imgs = [
            AnnotatedImage("f1", 800, 800, (GroundTruthObject(box, "pekinese"),)),
            AnnotatedImage("f2", 800, 800, (GroundTruthObject(box, "spaniel"),)),
            AnnotatedImage("f3", 800, 800, (GroundTruthObject(box, "pekinese"),)),
        ]
        ds = make_dataset(taxonomy, imgs, sequences=[["f1", "f2", "f3"]])
        # stage 1 deterministically misses pekinese frames, hits spaniel
        s1_prof = DetectorProfile(
            label_space=("dog",),
            confusion={"pekinese": {}, "spaniel": {"dog": 1.0}},
            correct_for={"spaniel": "dog"},
        )
        s1 = DetectorHandle.simulated(s1_prof, 1)
        s2 = {
            "dog": DetectorHandle.simulated(
                DetectorProfile(
                    ("pekinese", "spaniel"),
                    {"pekinese": {"pekinese": 1.0}, "spaniel": {"spaniel": 1.0}},
                ),
                2,
            )
        }
        return taxonomy, ds, s1, s2

    def test_v2_recovers_stage1_misses(self):
        taxonomy, ds, s1, s2 = self._recovery_setup()
        v1 = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        f1, f2, f3 = final_detections(v1)
        assert f1 == () and f3 == ()
        assert [d.label for d in f2] == ["spaniel"]

        v2 = route_v2(ds, s1, s2, RoutingConfig(0.5, "v2"))
        f1, _, f3 = final_detections(v2)
        assert [d.label for d in f1] == ["pekinese"]
        assert [d.label for d in f3] == ["pekinese"]
        assert v2.stage2_inferences == 3  # dog net on every frame

    def test_no_sequences_routes_as_v1(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=6, negatives=6, seed=5)
        ds = make_dataset(taxonomy, ds.images, sequences=())
        s1 = DetectorHandle.simulated(
            stage1_profile(taxonomy, 0.1, miss_rate=0.2, loc_noise_sigma=1.5,
                           negative_fp_rate=0.3),
            71,
        )
        s2 = {g: DetectorHandle.simulated(p, 72) for g, p in stage2_profiles(taxonomy, 0.1).items()}
        v1 = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        v2 = route_v2(ds, s1, s2, RoutingConfig(0.5, "v2"))
        assert v2 == v1
        final_detections(v1)
        assert 0 < v1.stage2_inferences < len(ds.images)

    def test_no_trigger_no_stage2(self):
        taxonomy, ds, s1, s2 = self._recovery_setup()
        out = route_v2(ds, s1, s2, RoutingConfig(tau=0.99999, mode="v2"))
        # confidences are 0.9 < tau, so nothing triggers
        assert out.stage2_inferences == 0

    def test_wrong_mode_rejected(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=1, seq_len=1)
        s1, s2 = perfect_handles(taxonomy)
        with pytest.raises(ValidationError, match="route_v2 called with mode 'v1'"):
            route_v2(ds, s1, s2, RoutingConfig(mode="v1"))

    def test_requires_sequences(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=2)
        s1, s2 = perfect_handles(taxonomy)
        with pytest.raises(ValidationError, match="sequences"):
            route_v2(ds, s1, s2, RoutingConfig(mode="v2"))

    def test_unsequenced_images_become_singletons(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=4, negatives=3, seq_len=2)
        s1, s2 = perfect_handles(taxonomy)
        out = route_v2(ds, s1, s2, RoutingConfig(mode="v2"))
        final_detections(out)
        assert_stage2_scoped(out, taxonomy)
        assert out.stage1_inferences == len(ds.images)
        # negatives are singletons and trigger nothing
        for img, t in zip(ds.images, out.images):
            if img.id.startswith("neg_"):
                assert t.invoked == ()

    def test_v2_activations_superset_of_v1(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=30, negatives=10, seq_len=5, seed=4)
        prof1 = stage1_profile(taxonomy, error_rate=0.05, miss_rate=0.25)
        s1 = DetectorHandle.simulated(prof1, 51)
        s2 = {g: DetectorHandle.simulated(p, 52) for g, p in stage2_profiles(taxonomy, 0.05).items()}
        v1 = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        v2 = route_v2(ds, s1, s2, RoutingConfig(0.5, "v2"))
        for out in (v1, v2):
            final_detections(out)
            assert_stage2_scoped(out, taxonomy)
        v1_inv = [t.invoked for t in v1.images]
        v2_inv = [t.invoked for t in v2.images]
        for inv1, inv2 in zip(v1_inv, v2_inv, strict=True):
            assert set(inv1) <= set(inv2)
        # therefore v2 cannot have more FN images
        from modcascade import fn_image_flags

        fn1 = sum(fn_image_flags(ds.images, v1_inv, taxonomy))
        fn2 = sum(fn_image_flags(ds.images, v2_inv, taxonomy))
        assert fn2 <= fn1

    @pytest.mark.parametrize("route", [route_v1, route_v2])
    def test_equal_sets_share_one_tuple(self, taxonomy, route):
        ds = synth_dataset(taxonomy, per_fine=30, negatives=10, seq_len=5, seed=4)
        s1 = DetectorHandle.simulated(stage1_profile(taxonomy, error_rate=0.05, miss_rate=0.25), 51)
        s2 = {g: DetectorHandle.simulated(p, 52) for g, p in stage2_profiles(taxonomy, 0.05).items()}
        mode = "v1" if route is route_v1 else "v2"
        images = route(ds, s1, s2, RoutingConfig(0.5, mode)).images
        sets = [t.triggered for t in images] + [t.invoked for t in images]
        assert len({id(s) for s in sets}) == len(set(sets)) > 1

    def test_v2_composite_error_improves(self, taxonomy):
        e1, m1, e2 = 0.0225, 0.02, 0.023
        ds = synth_dataset(taxonomy, per_fine=150, negatives=50, seq_len=5, seed=6)
        s1 = DetectorHandle.simulated(stage1_profile(taxonomy, e1, m1, loc_noise_sigma=1.5), 61)
        s2 = {
            g: DetectorHandle.simulated(p, 62)
            for g, p in stage2_profiles(taxonomy, e2, loc_noise_sigma=1.0).items()
        }
        v1 = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        v2 = route_v2(ds, s1, s2, RoutingConfig(0.5, "v2"))
        err1, _ = composite_error(ds, v1)
        err2, _ = composite_error(ds, v2)
        assert err2 <= err1
        assert err2 == pytest.approx(e2, abs=0.012)  # +/- 1 point around the pair rate


class TestTreeVsFlat:
    def test_each_image_one_network(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=10)  # 100 positives, no negatives
        s1, s2 = perfect_handles(taxonomy)
        out = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        result = compare_tree_vs_flat(out, n_fine_networks=5)
        assert result == {"tree_inferences": 200, "flat_inferences": 500, "ratio": 2.5}

    def test_none_routed(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=10)
        s1, s2 = perfect_handles(taxonomy)
        out = route_v1(ds, s1, s2, RoutingConfig(tau=1.0, mode="v1"))
        result = compare_tree_vs_flat(out, n_fine_networks=5)
        assert result["tree_inferences"] == 100
        assert result["flat_inferences"] == 500
        assert result["ratio"] == 5.0

    def test_ratio_at_least_one_under_random_routing(self, taxonomy):
        for seed in range(5):
            ds = synth_dataset(taxonomy, per_fine=20, negatives=10, seed=seed)
            prof1 = stage1_profile(taxonomy, 0.2, 0.1, negative_fp_rate=0.3)
            s1 = DetectorHandle.simulated(prof1, seed)
            s2 = {
                g: DetectorHandle.simulated(p, seed + 1)
                for g, p in stage2_profiles(taxonomy, 0.1).items()
            }
            out = route_v1(ds, s1, s2, RoutingConfig(0.4, "v1"))
            result = compare_tree_vs_flat(out, n_fine_networks=5)
            assert result["ratio"] >= 1.0

    def test_requires_positive_network_count(self, taxonomy):
        ds = synth_dataset(taxonomy, per_fine=1)
        s1, s2 = perfect_handles(taxonomy)
        out = route_v1(ds, s1, s2, RoutingConfig(0.5, "v1"))
        with pytest.raises(ValidationError):
            compare_tree_vs_flat(out, n_fine_networks=0)
