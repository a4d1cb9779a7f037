"""Evaluation tests: IoU/matching against brute-force oracles, exact AP
fixtures, FN-aware mAP arithmetic, error rates, confusion counts."""

import dataclasses
import math
import random
from fractions import Fraction

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
    match_detections,
)
from modcascade._kernels import greedy_match
from modcascade.core import (
    MISS,
    AnnotatedImage,
    BoundingBox,
    Detection,
    GroundTruthObject,
)
from modcascade.errors import ValidationError
from modcascade.evaluation import NoGroundTruthError, score_matches

from oracles import fraction_average_precision


def B(x, y, w, h):
    return BoundingBox(x, y, w, h)


TAXONOMY = ClassTaxonomy({"dog": ("pekinese", "spaniel"), "planet": ("mars", "saturn")})


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
            assert iou(B(*a), B(*b)) == _iou_raw(a, b)  # same arithmetic, bit-exact


def _iou_raw(a, b):
    # independent scalar IoU for the oracle
    ix = max(min(a[0] + a[2], b[0] + b[2]) - max(a[0], b[0]), 0.0)
    iy = max(min(a[1] + a[3], b[1] + b[3]) - max(a[1], b[1]), 0.0)
    inter = ix * iy
    union = a[2] * a[3] + b[2] * b[3] - inter
    return inter / union if union > 0 else 0.0


def greedy_oracle(dets, gts, threshold):
    """Reference matcher: straight re-implementation of the greedy rule."""
    order = sorted(range(len(dets)), key=lambda i: -dets[i].confidence)
    claimed = set()
    assign = {}
    for d in order:
        db = dets[d].box
        best, best_iou = None, 0.0
        for g, gt in enumerate(gts):
            if g in claimed:
                continue
            v = _iou_raw((db.x, db.y, db.w, db.h), (gt.box.x, gt.box.y, gt.box.w, gt.box.h))
            if v >= threshold and (best is None or v > best_iou):
                best, best_iou = g, v
        if best is not None:
            assign[d] = best
            claimed.add(best)
    return assign


class TestMatching:
    def test_single_exact_match(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        det = Detection(B(10, 10, 50, 50), "pekinese", 0.9)
        res = match_detections([det], [gt], 0.5)
        assert res.detections == (det,)
        assert res.claimed[0] is gt
        assert score_matches([res], TAXONOMY).classification_error == 0.0
        assert res.false_negatives == ()

    def test_two_dets_one_gt(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        hi = Detection(B(12, 10, 50, 50), "pekinese", 0.9)
        lo = Detection(B(10, 10, 50, 50), "pekinese", 0.3)
        res = match_detections([hi, lo], [gt], 0.5)
        assert res.detections == (hi, lo)  # input order, not confidence order
        assert res.claimed[0] is gt  # higher confidence claims it
        assert res.claimed[1] is None

    def test_class_agnostic_match_marks_wrong_label(self):
        gt = GroundTruthObject(B(10, 10, 50, 50), "pekinese")
        det = Detection(B(10, 10, 50, 50), "spaniel", 0.9)
        res = match_detections([det], [gt], 0.5)
        assert res.claimed[0] is gt
        report = score_matches([res], TAXONOMY)
        assert report.classification_error == 1.0
        assert report.confusion == {"pekinese": {"spaniel": 1}}

    def test_below_threshold_is_fn(self):
        gt = GroundTruthObject(B(0, 0, 10, 10), "pekinese")
        det = Detection(B(40, 40, 10, 10), "pekinese", 0.9)
        res = match_detections([det], [gt], 0.5)
        assert res.claimed == (None,)
        assert res.false_negatives == (gt,)

    def test_invalid_threshold(self):
        with pytest.raises(ValidationError):
            match_detections([], [], 0.0)

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
            res = match_detections(dets, gts, thr)
            want = greedy_oracle(dets, gts, thr)
            assert res.detections == tuple(dets)
            assert len(res.claimed) == n_det
            got = {i: gts.index(gt) for i, gt in enumerate(res.claimed) if gt is not None}
            assert got == want, f"trial {trial}"
            # structural invariants
            assert len(set(got.values())) == len(got)
            assert len(res.false_negatives) == n_gt - len(got)
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
        assert greedy_match(dets, gts, 0.5) == [0, -1]
        res = match_detections(dets, gts, 0.5)
        assert res.claimed == (gts[0], None)
        assert res.false_negatives == (gts[1],)

    def test_confidence_order_decides(self):
        gts = [_gt(self.GT0), _gt(self.GT1)]
        dets = [_det(self.A, 0.8), _det(self.C, 0.9)]
        # C goes first and claims gt0; A falls back to gt1
        assert greedy_match(dets, gts, 0.5) == [1, 0]
        res = match_detections(dets, gts, 0.5)
        assert res.claimed == (gts[1], gts[0])
        assert res.false_negatives == ()

    def test_equal_confidence_keeps_input_order(self):
        gts = [_gt(self.GT0)]
        a, c = _det(self.A, 0.7), _det(self.C, 0.7)
        # the first detection in input order claims gt0, whatever its IoU
        assert greedy_match([a, c], gts, 0.5) == [0, -1]
        assert greedy_match([c, a], gts, 0.5) == [0, -1]

    def test_iou_tie_prefers_lower_index(self):
        left, right = _gt((-2, 0, 10, 10)), _gt((2, 0, 10, 10))
        det = _det((0, 0, 10, 10), 0.9)
        assert iou(det.box, left.box) == iou(det.box, right.box) == 2 / 3
        assert greedy_match([det], [left, right], 0.5) == [0]
        assert greedy_match([det], [right, left], 0.5) == [0]
        assert match_detections([det], [right, left], 0.5).claimed[0] is right

    def test_iou_equal_to_threshold_matches(self):
        gt = _gt((0, 0, 100, 100))
        det = _det((0, 0, 50, 100), 0.9)
        assert iou(det.box, gt.box) == 0.5
        assert greedy_match([det], [gt], 0.5) == [0]

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
                assert greedy_match([det], [gt], v) == [0]
                assert greedy_match([det], [gt], math.nextafter(v, 2.0)) == [-1]
        assert checked > 100

    def test_empty_dets_or_gts(self):
        gts = [_gt(self.GT0), _gt(self.GT1)]
        dets = [_det(self.A, 0.9), _det(self.C, 0.8)]
        assert greedy_match([], gts, 0.5) == []
        assert greedy_match(dets, [], 0.5) == [-1, -1]
        assert greedy_match([], [], 0.5) == []
        no_gts = match_detections(dets, [], 0.5)
        assert no_gts.detections == tuple(dets)
        assert no_gts.claimed == (None, None)
        assert no_gts.false_negatives == ()
        no_dets = match_detections([], gts, 0.5)
        assert no_dets.detections == no_dets.claimed == ()
        assert no_dets.false_negatives == tuple(gts)


class TestAveragePrecision:
    def test_perfect_detector(self):
        records = [(0.9, True), (0.8, True), (0.7, True)]
        assert average_precision(records, 3) == 1.0

    def test_no_detections(self):
        assert average_precision([], 4) == 0.0

    def test_no_ground_truth_error(self):
        with pytest.raises(NoGroundTruthError):
            average_precision([(0.9, True)], 0)

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


def _match_with_labels(pairs, fns=()):
    """Build a MatchResult-equivalent via match_detections on stacked boxes."""
    dets, gts = [], []
    for k, (true, pred) in enumerate(pairs):
        box = B(k * 100.0, 0, 50, 50)
        dets.append(Detection(box, pred, 0.9))
        gts.append(GroundTruthObject(box, true))
    for k, true in enumerate(fns):
        gts.append(GroundTruthObject(B(k * 100.0, 500, 50, 50), true))
    return match_detections(dets, gts, 0.5)


def _score(res, level="fine"):
    return score_matches([res], TAXONOMY, level=level)


class TestErrorAndConfusion:
    """Classification error and confusion of one image's matches, as
    ``score_matches`` computes them."""

    def test_all_correct(self):
        res = _match_with_labels([("pekinese", "pekinese"), ("mars", "mars")])
        assert _score(res).classification_error == 0.0

    def test_direct_ratio(self):
        pairs = [("pekinese", "pekinese")] * 88 + [("pekinese", "spaniel")] * 12
        res = _match_with_labels(pairs)
        assert _score(res).classification_error == pytest.approx(0.12)

    def test_no_matches_error(self):
        res = match_detections([], [GroundTruthObject(B(0, 0, 5, 5), "mars")], 0.5)
        report = _score(res)
        assert report.classification_error == 0.0 and report.matched_count == 0
        assert report.confusion == {"mars": {MISS: 1}}

    def test_confusion_all_correct_diagonal(self):
        res = _match_with_labels([("pekinese", "pekinese"), ("mars", "mars")])
        assert _score(res).confusion == {"pekinese": {"pekinese": 1}, "mars": {"mars": 1}}

    def test_confusion_projection_absorbs_siblings(self):
        res = _match_with_labels([("pekinese", "spaniel"), ("spaniel", "pekinese")])
        assert _score(res).confusion["pekinese"]["spaniel"] == 1
        assert _score(res, "general").confusion == {"dog": {"dog": 2}}

    def test_sibling_swap_is_right_at_general_level(self):
        # two dog boxes, each labelled with the other's sibling: wrong at
        # fine level, right at general level, and the error, the AP and
        # the confusion all say so
        res = _match_with_labels([("pekinese", "spaniel"), ("spaniel", "pekinese")])
        general = _score(res, "general")
        assert general.classification_error == 0.0
        assert general.per_class_ap == {"dog": 1.0}
        assert general.confusion == {"dog": {"dog": 2}}
        fine = _score(res)
        assert fine.classification_error == 1.0
        assert fine.per_class_ap == {"pekinese": 0.0, "spaniel": 0.0}

    def test_confusion_fn_goes_to_miss(self):
        res = _match_with_labels([("mars", "mars")], fns=["saturn"])
        assert _score(res).confusion["saturn"][MISS] == 1

    def test_row_sums_recount(self):
        rng = random.Random(3)
        labels = ["pekinese", "spaniel", "mars", "saturn"]
        pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(60)]
        fns = [rng.choice(labels) for _ in range(10)]
        cm = _score(_match_with_labels(pairs, fns)).confusion
        for lbl in labels:
            want = sum(1 for t, _ in pairs if t == lbl) + sum(1 for t in fns if t == lbl)
            assert sum(cm.get(lbl, {}).values()) == want

    def test_general_error_never_exceeds_fine(self):
        rng = random.Random(9)
        labels = ["pekinese", "spaniel", "mars", "saturn"]
        for _ in range(50):
            pairs = [(rng.choice(labels), rng.choice(labels)) for _ in range(30)]
            res = _match_with_labels(pairs)
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
        # scoring a subset of a run's per-image matches, as
        # `evaluate_run` does for the routed images, equals evaluating
        # that subset afresh
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
        matches = [match_detections(d, img.objects, 0.5) for img, d in zip(ds.images, dets)]
        keep = [k for k in range(len(ds.images)) if k % 3 != 1]
        subset = evaluate_run([ds.images[k] for k in keep], [dets[k] for k in keep], taxonomy)
        rescored = score_matches([matches[k] for k in keep], taxonomy)
        assert rescored.to_json() == subset.to_json()
        assert rescored.map == subset.map

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
