"""Evaluation tests: IoU/matching against brute-force oracles, exact AP
fixtures, FN-aware mAP arithmetic, error rates, confusion counts."""

import dataclasses
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from modcascade import (
    ClassTaxonomy,
    EvalReport,
    average_precision,
    evaluate_run,
    fn_image_flags,
    iou,
    map_with_fn_accounting,
)
from modcascade import _kernels
from modcascade._kernels import box_rows, match_columns
from modcascade.core import (
    MISS,
    AnnotatedImage,
    BoundingBox,
    Detection,
    GroundTruthObject,
)
from modcascade.errors import ValidationError
from modcascade.evaluation import NoGroundTruthError

from oracles import evaluate_run_oracle, fraction_average_precision, greedy_oracle, iou_raw


def B(x, y, w, h):
    return BoundingBox(x, y, w, h)


TAXONOMY = ClassTaxonomy({"dog": ("pekinese", "spaniel"), "planet": ("mars", "saturn")})


def assign(dets, gts, iou_threshold):
    """``match_columns`` of one image: per detection, in input order, the
    index of the ground truth it claimed, or -1."""
    conf = np.array([d.confidence for d in dets], dtype=float)
    det_xywh, gt_xywh = box_rows(d.box for d in dets), box_rows(g.box for g in gts)
    return match_columns(det_xywh, conf, [len(dets)], gt_xywh, [len(gts)], iou_threshold).tolist()


def evaluate_image(dets, gts, level="fine"):
    """``evaluate_run`` of one image holding ``gts``."""
    return evaluate_run([AnnotatedImage("i", 1e4, 1e4, tuple(gts))], [dets], TAXONOMY, level=level)


class TestIoU:
    def test_identity(self):
        assert iou(B(3, 4, 20, 10), B(3, 4, 20, 10)) == 1.0

    def test_disjoint(self):
        assert iou(B(0, 0, 10, 10), B(100, 100, 5, 5)) == 0.0

    def test_half_overlap_fixture(self):
        # inter 5x10=50, union 100+100-50=150
        assert iou(B(0, 0, 10, 10), B(5, 0, 10, 10)) == 1 / 3

    def test_touching_edges(self):
        assert iou(B(0, 0, 10, 10), B(10, 0, 10, 10)) == 0.0

    def test_symmetry(self):
        rng = random.Random(5)
        for _ in range(200):
            a = B(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            b = B(rng.uniform(0, 50), rng.uniform(0, 50), rng.uniform(1, 40), rng.uniform(1, 40))
            assert iou(a, b) == iou(b, a)
            assert 0.0 <= iou(a, b) <= 1.0

    def test_against_independent_scalar(self):
        rng = random.Random(1)
        for _ in range(200):
            a = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0.5, 50), rng.uniform(0.5, 50))
            b = (rng.uniform(0, 100), rng.uniform(0, 100), rng.uniform(0.5, 50), rng.uniform(0.5, 50))
            assert iou(B(*a), B(*b)) == iou_raw(a, b)  # same arithmetic, bit-exact
            # integer boxes, as a dataset file may hold them
            a = (rng.randint(0, 100), rng.randint(0, 100), rng.randint(1, 50), rng.randint(1, 50))
            b = (rng.randint(0, 100), rng.randint(0, 100), rng.randint(1, 50), rng.randint(1, 50))
            assert iou(B(*a), B(*b)) == iou_raw(a, b)


class TestMatching:
    def test_single_exact_match(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        det = Detection(B(10, 10, 50, 50), "pekinese", 0.9)
        assert assign([det], [gt], 0.5) == [0]
        report = evaluate_image([det], [gt])
        assert report.classification_error == 0.0
        assert report.confusion == {"pekinese": {"pekinese": 1}}  # no false negative

    def test_two_dets_one_gt(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        hi = Detection(B(12, 10, 50, 50), "pekinese", 0.9)
        lo = Detection(B(10, 10, 50, 50), "pekinese", 0.3)
        # one entry per detection in input order; the higher confidence claims gt
        assert assign([hi, lo], [gt], 0.5) == [0, -1]

    def test_class_agnostic_match_marks_wrong_label(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        det = Detection(B(10, 10, 50, 50), "spaniel", 0.9)
        assert assign([det], [gt], 0.5) == [0]
        report = evaluate_image([det], [gt])
        assert report.classification_error == 1.0
        assert report.confusion == {"pekinese": {"spaniel": 1}}

    def test_below_threshold_is_fn(self):
        gt = GroundTruthObject(B(0, 0, 10, 10), "pekinese")
        det = Detection(B(40, 40, 10, 10), "pekinese", 0.9)
        assert assign([det], [gt], 0.5) == [-1]
        assert evaluate_image([det], [gt]).confusion == {"pekinese": {MISS: 1}}

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            evaluate_run([], [], TAXONOMY, iou_threshold=0.0)

    def test_randomized_against_oracle(self):
        rng = random.Random(20240917)
        labels = ["pekinese", "spaniel", "mars", "saturn"]
        for trial in range(150):
            n_det = rng.randint(0, 20)
            n_gt = rng.randint(0, 10)
            dets = [
                Detection(
                    B(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40), rng.uniform(5, 40)),
                    rng.choice(labels),
                    round(rng.random(), 3),
                )
                for _ in range(n_det)
            ]
            gts = [
                GroundTruthObject(
                    B(rng.uniform(0, 80), rng.uniform(0, 80), rng.uniform(5, 40), rng.uniform(5, 40)),
                    rng.choice(labels),
                )
                for _ in range(n_gt)
            ]
            thr = rng.choice([0.3, 0.5, 0.7])
            claimed = assign(dets, gts, thr)
            want = greedy_oracle(dets, gts, thr)
            assert len(claimed) == n_det
            got = {i: g for i, g in enumerate(claimed) if g >= 0}
            assert got == want, f"trial {trial}"
            # structural invariants: each ground truth claimed at most once,
            # and only at or above the threshold
            assert len(set(got.values())) == len(got)
            for i, g in got.items():
                db, gb = dets[i].box, gts[g].box
                assert iou(db, gb) >= thr


def _det(box, confidence):
    return Detection(B(*box), "pekinese", confidence)


def _gt(box):
    return GroundTruthObject(B(*box), "pekinese")


class TestGreedyMatch:
    # gt0 and gt1 overlap; A sits on gt0, C straddles gt0 and gt1:
    # iou(A, gt0) = 1, iou(A, gt1) = 7/13; iou(C, gt0) = 9/11, iou(C, gt1) = 6/14
    GT0, GT1 = (0, 0, 10, 10), (3, 0, 10, 10)
    A, C = (0, 0, 10, 10), (-1, 0, 10, 10)

    def test_claims_best_unclaimed(self):
        gts = [_gt(self.GT0), _gt(self.GT1)]
        dets = [_det(self.A, 0.9), _det(self.C, 0.8)]
        # A takes gt0; C's best remaining is gt1, below the threshold
        assert assign(dets, gts, 0.5) == [0, -1]

    def test_confidence_order_decides(self):
        gts = [_gt(self.GT0), _gt(self.GT1)]
        dets = [_det(self.A, 0.8), _det(self.C, 0.9)]
        # C goes first and claims gt0; A falls back to gt1
        assert assign(dets, gts, 0.5) == [1, 0]

    def test_equal_confidence_keeps_input_order(self):
        gts = [_gt(self.GT0)]
        a, c = _det(self.A, 0.7), _det(self.C, 0.7)
        # the first detection in input order claims gt0, whatever its IoU
        assert assign([a, c], gts, 0.5) == [0, -1]
        assert assign([c, a], gts, 0.5) == [0, -1]

    def test_iou_tie_prefers_lower_index(self):
        left, right = _gt((-2, 0, 10, 10)), _gt((2, 0, 10, 10))
        det = _det((0, 0, 10, 10), 0.9)
        assert iou(det.box, left.box) == iou(det.box, right.box) == 2 / 3
        assert assign([det], [left, right], 0.5) == [0]
        assert assign([det], [right, left], 0.5) == [0]

    def test_iou_equal_to_threshold_matches(self):
        gt = _gt((0, 0, 100, 100))
        det = _det((0, 0, 50, 100), 0.9)
        assert iou(det.box, gt.box) == 0.5
        assert assign([det], [gt], 0.5) == [0]

    def test_inlined_iou_is_bit_identical(self):
        # a threshold equal to iou() must match and the next double above
        # it must not, so the matcher's own IoU is exactly iou()'s double
        rng = random.Random(8)

        def box():
            x, y = rng.uniform(0, 100), rng.uniform(0, 100)
            return (x, y, rng.uniform(0.5, 60), rng.uniform(0.5, 60))

        checked = 0
        for _ in range(500):
            gt, det = _gt(box()), _det(box(), 0.5)
            v = iou(det.box, gt.box)
            if v > 0.0:
                checked += 1
                assert assign([det], [gt], v) == [0]
                assert assign([det], [gt], math.nextafter(v, 2.0)) == [-1]
        assert checked > 100

    def test_empty_dets_or_gts(self):
        gts = [_gt(self.GT0), _gt(self.GT1)]
        dets = [_det(self.A, 0.9), _det(self.C, 0.8)]
        assert assign([], gts, 0.5) == []
        assert assign(dets, [], 0.5) == [-1, -1]
        assert assign([], [], 0.5) == []
        assert evaluate_image([], gts).confusion == {"pekinese": {MISS: 2}}


class TestAveragePrecision:
    def test_perfect_detector(self):
        records = [(0.9, True), (0.8, True), (0.7, True)]
        assert average_precision(records, 3) == 1.0

    def test_no_detections(self):
        assert average_precision([], 4) == 0.0

    def test_no_ground_truth_error(self):
        with pytest.raises(NoGroundTruthError):
            average_precision([(0.9, True)], 0)

    @pytest.mark.parametrize("records, n_gt", [
        ([(math.nan, True)], 1),
        ([(math.inf, True), (0.5, False)], 1),
        ([(0.9, True)], 2.5),
        ([(0.9, True)], True),
        ([(0.9, True)], 2.0),
    ], ids=["nan-confidence", "inf-confidence", "fractional-n_gt", "bool-n_gt", "float-n_gt"])
    def test_unscorable_input_is_validation_error(self, records, n_gt):
        # each was scored: the NaN as a hit (1.0), 2.5 by float division (0.4)
        with pytest.raises(ValidationError, match="finite|integer") as info:
            average_precision(records, n_gt)
        assert not isinstance(info.value, NoGroundTruthError)

    def test_hand_curve_five_sixths(self):
        # ranks: TP (P=1, R=.5), FP (P=.5), TP (P=2/3, R=1)
        # envelope: 1 on [0,.5], 2/3 on (.5,1] -> area 1/2 + 1/3
        records = [(0.9, True), (0.8, False), (0.7, True)]
        ap = average_precision(records, 2)
        assert ap == 5 / 6
        assert ap == float(Fraction(5, 6))

    def test_wrong_label_is_fp(self):
        records = [(0.9, False)]
        assert average_precision(records, 1) == 0.0

    def test_confidence_tie_uses_input_order(self):
        a = average_precision([(0.5, True), (0.5, False)], 1)
        b = average_precision([(0.5, False), (0.5, True)], 1)
        assert a == 1.0 and b == 0.5

    def test_monotone_adding_top_tp(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(1, 15)
            records = [(rng.random() * 0.8, rng.random() < 0.5) for _ in range(n)]
            n_gt = sum(1 for _, tp in records if tp) + rng.randint(1, 4)
            base = average_precision(records, n_gt)
            boosted = average_precision(records + [(0.99, True)], n_gt)
            assert boosted >= base


@st.composite
def ap_cases(draw):
    """AP inputs: confidences from a few values (many ties) or anywhere
    in [0, 1]; mixed, all-FP or all-TP lists; n_gt at or above the TP count."""
    conf = draw(st.sampled_from(["ties", "any"]))
    confs = st.sampled_from([0.0, 0.25, 0.5, 0.9, 1.0]) if conf == "ties" else st.floats(0.0, 1.0)
    kind = draw(st.sampled_from(["mixed", "all_fp", "all_tp"]))
    hits = {"mixed": st.booleans(), "all_fp": st.just(False), "all_tp": st.just(True)}[kind]
    records = draw(st.lists(st.tuples(confs, hits), max_size=80))
    tp = sum(1 for _, hit in records if hit)
    n_gt = max(tp, 1) + draw(st.integers(0, 6))
    return records, n_gt


class TestAveragePrecisionOracle:
    @settings(max_examples=600, deadline=None)
    @given(case=ap_cases())
    def test_equals_fraction_curve_exactly(self, case):
        records, n_gt = case
        assert average_precision(records, n_gt) == fraction_average_precision(records, n_gt)

    def test_long_random_lists(self):
        rng = random.Random(3)
        for _ in range(50):
            n = rng.randint(200, 2000)
            records = [(rng.choice([0.3, 0.6, rng.random()]), rng.random() < 0.7) for _ in range(n)]
            n_gt = sum(1 for _, hit in records if hit) + rng.randint(0, 50)
            assert average_precision(records, n_gt) == fraction_average_precision(records, n_gt)


class TestFnAccounting:
    def test_zero_fn_is_identity(self):
        assert map_with_fn_accounting(0.87, 123, 0) == 0.87

    def test_all_fn_is_zero(self):
        assert map_with_fn_accounting(0.95, 0, 50) == 0.0

    def test_five_percent_fn_scaling(self):
        assert map_with_fn_accounting(0.95, 95, 5) == 0.9025

    def test_zero_denominator(self):
        with pytest.raises(ValidationError):
            map_with_fn_accounting(0.9, 0, 0)

    @pytest.mark.parametrize("args", [
        (math.nan, 1, 1), (0.5, 1.5, 1), (2.0, 1, 1), (-1.0, 1, 1), (0.5, True, 0),
        (0.5, 1, -1), (0.5, 1, None),
    ], ids=["nan-map", "fractional-count", "map-above-1", "negative-map", "bool-count",
            "negative-count", "none-count"])
    def test_invalid_input_is_validation_error(self, args):
        # a bare ValueError, a TypeError, 1.0, -0.5 and a bool counted as 1 before
        with pytest.raises(ValidationError, match="stage2_map|routed_positive_images|fn_images"):
            map_with_fn_accounting(*args)

    def test_linear_in_fn_fraction(self):
        # with the total fixed, halving the FN count moves the result
        # exactly halfway to the stage-2 mAP
        m, total = 0.9, 200
        for fn in (100, 50, 40, 2):
            full = map_with_fn_accounting(m, total - fn, fn)
            half = map_with_fn_accounting(m, total - fn // 2, fn // 2)
            assert half == pytest.approx((full + m) / 2, abs=1e-12)
        # and is exactly m * (1 - fn/total)
        for fn in range(0, 201, 25):
            got = map_with_fn_accounting(m, total - fn, fn)
            assert got == pytest.approx(m * (1 - fn / total), abs=1e-15)


def _image_with_labels(pairs, fns=()):
    """One image's detections and ground truths: a detection on each
    pair's ground truth, boxes side by side, then the unmatched ``fns``."""
    dets, gts = [], []
    for k, (true, pred) in enumerate(pairs):
        box = B(k * 100.0, 0, 50, 50)
        dets.append(Detection(box, pred, 0.9))
        gts.append(GroundTruthObject(box, true))
    for k, true in enumerate(fns):
        gts.append(GroundTruthObject(B(k * 100.0, 500, 50, 50), true))
    return dets, gts


def _score(image, level="fine"):
    return evaluate_image(*image, level=level)


class TestErrorAndConfusion:
    """Classification error and confusion of one image's matches, as
    a one-image ``evaluate_run`` computes them."""

    def test_all_correct(self):
        res = _image_with_labels([("pekinese", "pekinese"), ("mars", "mars")])
        assert _score(res).classification_error == 0.0

    def test_direct_ratio(self):
        pairs = [("pekinese", "pekinese")] * 88 + [("pekinese", "spaniel")] * 12
        res = _image_with_labels(pairs)
        assert _score(res).classification_error == pytest.approx(0.12)

    def test_no_matches_error(self):
        report = _score(([], [GroundTruthObject(B(0, 0, 5, 5), "mars")]))
        assert report.classification_error == 0.0 and report.matched_count == 0
        assert report.confusion == {"mars": {MISS: 1}}

    def test_confusion_all_correct_diagonal(self):
        res = _image_with_labels([("pekinese", "pekinese"), ("mars", "mars")])
        assert _score(res).confusion == {"pekinese": {"pekinese": 1}, "mars": {"mars": 1}}

    def test_confusion_projection_absorbs_siblings(self):
        res = _image_with_labels([("pekinese", "spaniel"), ("spaniel", "pekinese")])
        assert _score(res).confusion["pekinese"]["spaniel"] == 1
        assert _score(res, "general").confusion == {"dog": {"dog": 2}}

    def test_sibling_swap_is_right_at_general_level(self):
        # two dog boxes, each labelled with the other's sibling: wrong at
        # fine level, right at general level, and the error, the AP and
        # the confusion all say so
        res = _image_with_labels([("pekinese", "spaniel"), ("spaniel", "pekinese")])
        general = _score(res, "general")
        assert general.classification_error == 0.0
        assert general.per_class_ap == {"dog": 1.0}
        assert general.confusion == {"dog": {"dog": 2}}
        fine = _score(res)
        assert fine.classification_error == 1.0
        assert fine.per_class_ap == {"pekinese": 0.0, "spaniel": 0.0}

    def test_confusion_fn_goes_to_miss(self):
        res = _image_with_labels([("mars", "mars")], fns=["saturn"])
        assert _score(res).confusion["saturn"][MISS] == 1

    def test_row_sums_recount(self):
        rng = random.Random(3)
        labels = ["pekinese", "spaniel", "mars", "saturn"]
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(60)]
        fns = [rng.choice(labels) for _ in range(10)]
        cm = _score(_image_with_labels(pairs, fns)).confusion
        for lbl in labels:
            want = sum(1 for t, _ in pairs if t == lbl) + sum(1 for t in fns if t == lbl)
            assert sum(cm.get(lbl, {}).values()) == want

    def test_general_error_never_exceeds_fine(self):
        rng = random.Random(9)
        labels = ["pekinese", "spaniel", "mars", "saturn"]
        for _ in range(50):
            pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(30)]
            res = _image_with_labels(pairs)
            err_fine = _score(res).classification_error
            general = _score(res, "general").confusion
            wrong_general = sum(n for t, row in general.items() for p, n in row.items() if p != t)
            assert wrong_general == sum(
                1 for t, p in pairs if TAXONOMY.general_of(t) != TAXONOMY.general_of(p)
            )
            assert wrong_general / len(pairs) <= err_fine


class TestEvaluateRun:
    def _images(self):
        imgs = [
            AnnotatedImage(
                "a", 200, 200, (GroundTruthObject(B(10, 10, 50, 50), "pekinese"),)
            ),
            AnnotatedImage(
                "b", 200, 200, (GroundTruthObject(B(20, 20, 60, 60), "mars"),)
            ),
            AnnotatedImage("neg", 200, 200),
        ]
        return imgs

    def test_perfect_run(self):
        imgs = self._images()
        dets = [
            [Detection(B(10, 10, 50, 50), "pekinese", 0.95)],
            [Detection(B(20, 20, 60, 60), "mars", 0.9)],
            [],
        ]
        rep = evaluate_run(imgs, dets, TAXONOMY)
        assert rep.map == 1.0
        assert rep.classification_error == 0.0
        assert rep.per_class_ap == {"mars": 1.0, "pekinese": 1.0}

    def test_map_is_mean_over_classes_with_gt(self):
        imgs = self._images()
        dets = [[Detection(B(10, 10, 50, 50), "pekinese", 0.95)], [], []]
        rep = evaluate_run(imgs, dets, TAXONOMY)
        # mars undetected: AP 0; spaniel/saturn have no GT: excluded
        assert set(rep.per_class_ap) == {"pekinese", "mars"}
        assert rep.map == 0.5

    def test_fn_image_count_uses_invoked_coverage(self):
        imgs = self._images()
        rep = evaluate_run(imgs, [(), (), ()], TAXONOMY, invoked=[("dog",), (), ()])
        # b's planet object had no covering invocation; negatives never count
        assert rep.fn_image_count == 1
        assert fn_image_flags(imgs, [("dog",), (), ()], TAXONOMY) == (False, True, False)

    def _perfect_dets(self):
        return [
            [Detection(B(10, 10, 50, 50), "pekinese", 0.95)],
            [Detection(B(20, 20, 60, 60), "mars", 0.9)],
            [],
        ]

    def test_cascade_run_scores_fn_accounting(self):
        imgs, dets = self._images(), self._perfect_dets()
        rep = evaluate_run(imgs, dets, TAXONOMY, invoked=[("dog",), (), ()])
        # b is an FN image: only a is routed, and b is rated zero
        assert rep.map == 1.0
        assert (rep.fn_image_count, rep.routed_positive_images) == (1, 1)
        assert rep.map_stage2_routed == evaluate_run(imgs[:1], dets[:1], TAXONOMY).map == 1.0
        assert rep.map_fn_adjusted == map_with_fn_accounting(1.0, 1, 1) == 0.5

    def test_cascade_run_without_positive_images(self):
        # neither routed nor FN images: the FN-adjusted mAP is the run's own
        imgs = [AnnotatedImage("neg", 200, 200)]
        dets = [[Detection(B(0, 0, 10, 10), "mars", 0.5)]]
        rep = evaluate_run(imgs, dets, TAXONOMY, invoked=[("planet",)])
        assert rep.routed_positive_images == rep.fn_image_count == 0
        assert rep.map_stage2_routed == rep.map_fn_adjusted == rep.map == 0.0

    def test_flat_run_has_no_cascade_fields(self):
        rep = evaluate_run(self._images(), self._perfect_dets(), TAXONOMY)
        assert rep.routed_positive_images is rep.map_stage2_routed is rep.map_fn_adjusted is None
        assert set(rep.to_json()) == {
            "per_class_ap", "map", "classification_error", "confusion",
            "fn_image_count", "matched_count",
        }

    def test_cascade_report_serializes_every_field(self):
        # the report holds exactly what it prints: no unserialized side channel
        rep = evaluate_run(
            self._images(), self._perfect_dets(), TAXONOMY, invoked=[("dog",), (), ()]
        )
        assert set(rep.to_json()) == {f.name for f in dataclasses.fields(EvalReport)}

    def test_order_independence(self):
        imgs = self._images()
        dets = [
            [Detection(B(11, 10, 50, 50), "spaniel", 0.7)],
            [Detection(B(20, 20, 60, 60), "mars", 0.9)],
            [],
        ]
        r1 = evaluate_run(imgs, dets, TAXONOMY)
        r2 = evaluate_run(imgs[::-1], dets[::-1], TAXONOMY)
        assert r1.map == r2.map
        assert r1.classification_error == r2.classification_error

    @pytest.mark.parametrize("image, dets, level", [
        # no label is projected, so the level was never looked at
        (AnnotatedImage("neg", 200, 200), [], "bogus"),
        (AnnotatedImage("neg", 200, 200), [Detection(B(0, 0, 9, 9), "mars", math.nan)], "fine"),
        (AnnotatedImage("neg", 200, 200), [Detection(B(0, 0, 9, 9), "mars", math.inf)], "fine"),
        (AnnotatedImage("neg", 200, 200), [Detection(B(0, math.nan, 9, 9), "mars", 0.5)], "fine"),
        (AnnotatedImage("a", 200, 200, (GroundTruthObject(B(0, 0, math.nan, 9), "mars"),)), [],
         "general"),
    ], ids=["level", "nan-confidence", "inf-confidence", "nan-detection-box", "nan-object-box"])
    def test_unscorable_input_is_validation_error(self, image, dets, level):
        # each was scored silently; a NaN also leaves the sort order undefined
        with pytest.raises(ValidationError, match="level|finite"):
            evaluate_run([image], [dets], TAXONOMY, level=level)

    @pytest.mark.parametrize("extra", [-1, 1])
    def test_misaligned_sequences_raise(self, extra):
        # per-image results pair with the images by position; one too few
        # or too many is an error, not an image scored against nothing
        imgs = self._images()
        wrong = [()] * (len(imgs) + extra)
        misaligned = r"argument 2 is (shorter|longer) than argument 1"
        with pytest.raises(ValueError, match=misaligned):
            evaluate_run(imgs, wrong, TAXONOMY)
        with pytest.raises(ValueError, match=misaligned):
            evaluate_run(imgs, [()] * len(imgs), TAXONOMY, invoked=wrong)
        with pytest.raises(ValueError, match=misaligned):
            fn_image_flags(imgs, wrong, TAXONOMY)

    def test_subset_rescored_from_matches(self):
        # the routed-subset mAP that a cascade `evaluate_run` scores from
        # the run's own matches equals a fresh `evaluate_run` over the
        # routed images
        from modcascade import DetectorHandle, DetectorProfile, detect
        from conftest import synth_dataset, taxonomy_5x2

        taxonomy = taxonomy_5x2()
        ds = synth_dataset(taxonomy, per_fine=8, negatives=4, seed=21)
        profile = DetectorProfile(
            label_space=taxonomy.fine_labels,
            confusion={f: {g: 0.45 for g in taxonomy.fine_of[taxonomy.general_of(f)]}
                       for f in taxonomy.fine_labels},
            negative_fp_rate=0.5,
            loc_noise_sigma=20.0,
        )
        dets = [detect(DetectorHandle.simulated(profile, 4), img) for img in ds.images]
        # every third image invokes no general: a positive one is an FN image
        invoked = [() if k % 3 == 1 else taxonomy.generals for k in range(len(ds.images))]
        cascade = evaluate_run(ds.images, dets, taxonomy, invoked=invoked)
        keep = [k for k, img in enumerate(ds.images) if img.objects and k % 3 != 1]
        routed = evaluate_run([ds.images[k] for k in keep], [dets[k] for k in keep], taxonomy)
        assert cascade.routed_positive_images == len(keep)
        assert 0 < cascade.fn_image_count < len(ds.images) - len(keep)  # negatives are neither
        assert cascade.map_stage2_routed == routed.map
        assert routed.map != cascade.map  # the subset is scored on its own

    def test_map_degrades_with_localization_noise(self):
        # noiseless identity detector scores exactly 1.0; growing box
        # noise can only push IoU below threshold and shed precision
        from modcascade import DetectorHandle, DetectorProfile, detect
        from conftest import synth_dataset, taxonomy_5x2

        taxonomy = taxonomy_5x2()
        ds = synth_dataset(taxonomy, per_fine=30, seed=14)
        maps = []
        for sigma in (0.0, 4.0, 16.0, 48.0, 120.0):
            per_seed = []
            for seed in (1, 2, 3):
                profile = DetectorProfile(
                    label_space=taxonomy.fine_labels,
                    confusion={f: {f: 1.0} for f in taxonomy.fine_labels},
                    loc_noise_sigma=sigma,
                )
                handle = DetectorHandle.simulated(profile, seed)
                dets = [detect(handle, img) for img in ds.images]
                per_seed.append(evaluate_run(ds.images, dets, taxonomy).map)
            maps.append(sum(per_seed) / len(per_seed))
        assert maps[0] == 1.0
        assert all(a >= b for a, b in zip(maps, maps[1:]))


LABELS = {"fine": TAXONOMY.fine_labels, "general": TAXONOMY.fine_labels + TAXONOMY.generals}
THRESHOLDS = (0.25, 1 / 3, 0.5, 1.0)


def _random_run(rng: random.Random) -> dict:
    """A run for ``evaluate_run``: up to six images with 0-6 objects and
    0-8 detections on a small integer grid, so that equal IoUs, touching
    and identical boxes and IoUs of exactly 1/4, 1/3, 1/2 and 1 come up
    often; confidences from three values; either level, with or without
    invoked generals."""
    level = rng.choice(["fine", "general"])

    def box():
        return B(rng.randint(0, 4), rng.randint(0, 4), rng.randint(1, 3), rng.randint(1, 3))

    images, dets = [], []
    for k in range(rng.randint(0, 6)):
        objects = tuple(GroundTruthObject(box(), rng.choice(LABELS["fine"]))
                        for _ in range(rng.randint(0, 6)))
        images.append(AnnotatedImage(f"i{k}", 10, 10, objects))
        dets.append([Detection(box(), rng.choice(LABELS[level]), rng.choice([0.3, 0.6, 1.0]))
                     for _ in range(rng.randint(0, 8))])
    invoked = None
    if rng.random() < 0.5:
        invoked = [tuple(g for g in TAXONOMY.generals if rng.random() < 0.6) for _ in images]
    return {"images": images, "detections": dets, "level": level,
            "iou_threshold": rng.choice(THRESHOLDS), "invoked": invoked}


def _case_features(case) -> set[str]:
    """Which of the edge cases the matcher must get right a run holds."""
    found = set()
    thr = case["iou_threshold"]
    for img, dets in zip(case["images"], case["detections"]):
        if not dets:
            found.add("no detections")
        if not img.objects:
            found.add("no objects")
        confs = [d.confidence for d in dets]
        if len(set(confs)) < len(confs):
            found.add("equal confidences")
        for d in dets:
            ious = [iou(d.box, o.box) for o in img.objects]
            if thr in ious:
                found.add(f"IoU at threshold {thr}")
            if any(v >= thr and ious.count(v) > 1 for v in ious):
                found.add("equal IoUs")
            if any(v == 0.0 and (d.box.x + d.box.w == o.box.x or o.box.x + o.box.w == d.box.x)
                   for v, o in zip(ious, img.objects)):
                found.add("touching boxes")
    invoked = case["invoked"]
    if invoked is not None and any(fn_image_flags(case["images"], invoked, TAXONOMY)):
        found.add("FN images")
    return found


class TestRunOracle:
    """``evaluate_run`` against matching and scoring image by image
    (``oracles.evaluate_run_oracle``), every float compared exactly."""

    def test_equals_image_by_image_evaluation(self):
        # a chunk of 1 to 8 pairs puts chunk boundaries everywhere
        rng = random.Random(2010)
        seen = set()
        for trial in range(300):
            case = _random_run(rng)
            want = evaluate_run_oracle(taxonomy=TAXONOMY, **case)
            with mock.patch.object(_kernels, "_CHUNK", rng.randint(1, 8)):
                assert evaluate_run(taxonomy=TAXONOMY, **case).to_json() == want, f"trial {trial}"
            seen |= _case_features(case)
        assert seen >= {"no detections", "no objects", "equal confidences", "equal IoUs",
                        "touching boxes", "FN images",
                        *(f"IoU at threshold {t}" for t in THRESHOLDS)}

    def test_run_of_several_chunks(self):
        # crowded images: more same-image pairs than one chunk holds
        rng = random.Random(23)
        labels = TAXONOMY.fine_labels

        def box():
            return B(rng.randint(0, 8), rng.randint(0, 8), rng.randint(2, 6), rng.randint(2, 6))

        images, dets = [], []
        for k in range(40):
            images.append(AnnotatedImage(
                f"i{k}", 20, 20,
                tuple(GroundTruthObject(box(), rng.choice(labels)) for _ in range(20)),
            ))
            dets.append([Detection(box(), rng.choice(labels), rng.choice([0.3, 0.6, 0.9]))
                         for _ in range(25)])
        invoked = [tuple(g for g in TAXONOMY.generals if rng.random() < 0.8) for _ in images]
        assert 40 * 20 * 25 > _kernels._CHUNK
        for level in ("fine", "general"):
            for inv in (None, invoked):
                got = evaluate_run(images, dets, TAXONOMY, level=level, invoked=inv).to_json()
                assert got == evaluate_run_oracle(images, dets, TAXONOMY, level=level, invoked=inv)
