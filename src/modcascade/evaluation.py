"""Detection evaluation: IoU matching, AP/mAP, FN-aware mAP, error rates.

Matching is class-agnostic greedy: a detection may claim a ground truth
of another class and then count as a classification error ("right box,
wrong label"), which keeps classification error measurable separately
from localization. AP uses all-points interpolation computed in exact
rational arithmetic, so results are bit-reproducible and independent of
summation order.

IoU and greedy matching have one plain-Python implementation, in
``_kernels``: there is no compiled backend to build or select.
Benchmark with ``python3 perfbench/run.py --workload W --seed 1
--seconds 30 --trace 0|1``; ``python3 perfbench/selftest.py`` checks
the benchmark itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from ._kernels import greedy_match, iou  # iou is re-exported
from .core import MISS, AnnotatedImage, ClassTaxonomy, Detection, GroundTruthObject
from .errors import ValidationError


class NoGroundTruthError(ValidationError):
    """AP requested for a class with no ground-truth objects."""


class NoMatchesError(ValidationError):
    """Classification error requested on a result with no matched detections."""


@dataclass(frozen=True)
class MatchedDetection:
    """One detection with its claimed ground truth (None = false positive)."""

    detection: Detection
    ground_truth: GroundTruthObject | None
    correct_label: bool


@dataclass(frozen=True)
class MatchResult:
    """Per-image matching outcome at a fixed IoU threshold.

    ``matched`` holds one entry per input detection, in input order;
    ``false_negatives`` are the ground truths no detection claimed.
    """

    matched: tuple[MatchedDetection, ...]
    false_negatives: tuple[GroundTruthObject, ...]
    iou_threshold: float

    @property
    def matched_pairs(self) -> tuple[MatchedDetection, ...]:
        return tuple(m for m in self.matched if m.ground_truth is not None)


def match_detections(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float,
    gt_label_fn: Callable[[GroundTruthObject], str] | None = None,
) -> MatchResult:
    """Greedily assign detections to ground truths, class-agnostically.

    Detections are processed in descending confidence (ties keep input
    order); each claims the unclaimed ground truth with the highest
    IoU >= threshold, IoU ties going to the lowest index. ``gt_label_fn``
    maps a ground truth to the label a detection must carry to count as
    correct (default: its fine label).
    """
    if not (0.0 < iou_threshold <= 1.0):
        raise ValidationError(f"iou_threshold {iou_threshold} outside (0, 1]")
    if gt_label_fn is None:
        gt_label_fn = lambda gt: gt.fine_label
    assign = greedy_match(dets, gts, iou_threshold)
    matched = []
    for det, g in zip(dets, assign):
        if g < 0:
            matched.append(MatchedDetection(det, None, False))
        else:
            gt = gts[g]
            matched.append(MatchedDetection(det, gt, det.label == gt_label_fn(gt)))
    claimed = set(assign)
    fns = tuple(gt for g, gt in enumerate(gts) if g not in claimed)
    return MatchResult(tuple(matched), fns, iou_threshold)


def average_precision(records: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """Area under the all-points-interpolated precision-recall curve.

    records: (confidence, is_true_positive) for every detection of one
    class; n_gt: ground-truth count of that class. Computed with exact
    rational arithmetic and rounded to float once at the end.
    """
    if n_gt <= 0:
        raise NoGroundTruthError("average precision undefined without ground truth")
    if not records:
        return 0.0
    order = sorted(range(len(records)), key=lambda i: -records[i][0])
    tp = 0
    points = []  # (recall, precision) after each detection
    for rank, i in enumerate(order, start=1):
        if records[i][1]:
            tp += 1
        points.append((Fraction(tp, n_gt), Fraction(tp, rank)))
    # monotone non-increasing precision envelope, area over recall steps
    area = Fraction(0)
    best = Fraction(0)
    env = [Fraction(0)] * len(points)
    for k in range(len(points) - 1, -1, -1):
        best = max(best, points[k][1])
        env[k] = best
    prev_r = Fraction(0)
    for k, (r, _) in enumerate(points):
        if r > prev_r:
            area += (r - prev_r) * env[k]
            prev_r = r
    return float(area)


def classification_error(match: MatchResult) -> float:
    """Fraction of matched detections carrying the wrong class label."""
    pairs = match.matched_pairs
    if not pairs:
        raise NoMatchesError("no matched detections")
    wrong = sum(1 for m in pairs if not m.correct_label)
    return wrong / len(pairs)


def confusion_matrix(
    match: MatchResult, level: str, taxonomy: ClassTaxonomy
) -> dict[tuple[str, str], int]:
    """(true, predicted) counts over matched detections; FNs go to MISS."""
    counts: dict[tuple[str, str], int] = {}
    for m in match.matched_pairs:
        true = taxonomy.label_at_level(m.ground_truth.fine_label, level)
        pred = taxonomy.label_at_level(m.detection.label, level)
        counts[(true, pred)] = counts.get((true, pred), 0) + 1
    for gt in match.false_negatives:
        true = taxonomy.label_at_level(gt.fine_label, level)
        counts[(true, MISS)] = counts.get((true, MISS), 0) + 1
    return counts


def map_with_fn_accounting(
    stage2_map: float, routed_positive_images: int, fn_images: int
) -> float:
    """Cascade-level mAP with image-level false negatives rated zero.

    Each positive image the first stage failed to route contributes a
    zero precision term weighted 1/(routed + fn); the routed images
    carry the second-stage mAP. Negative images never enter the
    denominator. Equals ``stage2_map`` when fn_images == 0.
    """
    if routed_positive_images < 0 or fn_images < 0:
        raise ValidationError("image counts must be non-negative")
    total = routed_positive_images + fn_images
    if total < 1:
        raise ValidationError("zero positive inference images")
    return float(Fraction(stage2_map) * Fraction(routed_positive_images, total))


@dataclass(frozen=True)
class EvalReport:
    """Aggregated evaluation of one detection run.

    ``map`` is the mean of per-class APs over classes with ground truth;
    ``classification_error`` is wrong/matched over all matched
    detections (0.0 when nothing matched — counts stay visible in the
    confusion matrix). ``fn_image_count`` counts positive images whose
    objects' general class had no covering stage-2 invocation.
    """

    per_class_ap: Mapping[str, float]
    map: float
    classification_error: float
    confusion: Mapping[str, Mapping[str, int]]
    fn_image_count: int
    matched_count: int = 0
    stage1_inferences: int = 0
    stage2_inferences: int = 0

    def to_json(self) -> dict:
        return {
            "per_class_ap": dict(self.per_class_ap),
            "map": self.map,
            "classification_error": self.classification_error,
            "confusion": {t: dict(p) for t, p in self.confusion.items()},
            "fn_image_count": self.fn_image_count,
            "matched_count": self.matched_count,
            "stage1_inferences": self.stage1_inferences,
            "stage2_inferences": self.stage2_inferences,
        }


def count_fn_images(
    images: Sequence[AnnotatedImage],
    invoked_by_image: Mapping[str, Sequence[str]],
    taxonomy: ClassTaxonomy,
) -> int:
    """Positive images with an object whose general class was never invoked."""
    count = 0
    for img in images:
        if not img.objects:
            continue
        invoked = set(invoked_by_image.get(img.id, ()))
        if any(taxonomy.general_of(o.fine_label) not in invoked for o in img.objects):
            count += 1
    return count


def evaluate_run(
    images: Sequence[AnnotatedImage],
    detections_by_image: Mapping[str, Sequence[Detection]],
    taxonomy: ClassTaxonomy,
    *,
    level: str = "fine",
    iou_threshold: float = 0.5,
    invoked_by_image: Mapping[str, Sequence[str]] | None = None,
    stage1_inferences: int = 0,
    stage2_inferences: int = 0,
) -> EvalReport:
    """Match and score a whole run at the given label level.

    Deterministic: images are folded in the given order, AP ties break
    by that order. ``invoked_by_image`` (image id -> invoked general
    classes) enables FN-image accounting for cascade runs; omit it for
    flat baselines.
    """
    records: dict[str, list[tuple[float, bool]]] = {}
    gt_counts: dict[str, int] = {}
    confusion: dict[str, dict[str, int]] = {}
    matched_total = 0
    wrong_total = 0

    def gt_label(gt: GroundTruthObject) -> str:
        return taxonomy.label_at_level(gt.fine_label, level)

    for img in images:
        dets = list(detections_by_image.get(img.id, ()))
        result = match_detections(dets, img.objects, iou_threshold, gt_label_fn=gt_label)
        for obj in img.objects:
            lbl = gt_label(obj)
            gt_counts[lbl] = gt_counts.get(lbl, 0) + 1
        for m in result.matched:
            det_lbl = taxonomy.label_at_level(m.detection.label, level)
            records.setdefault(det_lbl, []).append((m.detection.confidence, m.correct_label))
            if m.ground_truth is not None:
                matched_total += 1
                if not m.correct_label:
                    wrong_total += 1
                true = gt_label(m.ground_truth)
                row = confusion.setdefault(true, {})
                row[det_lbl] = row.get(det_lbl, 0) + 1
        for gt in result.false_negatives:
            row = confusion.setdefault(gt_label(gt), {})
            row[MISS] = row.get(MISS, 0) + 1

    per_class_ap = {
        lbl: average_precision(records.get(lbl, []), n)
        for lbl, n in sorted(gt_counts.items())
        if n > 0
    }
    if per_class_ap:
        mean_ap = float(sum(Fraction(v) for v in per_class_ap.values()) / len(per_class_ap))
    else:
        mean_ap = 0.0
    err = wrong_total / matched_total if matched_total else 0.0
    fn_images = (
        count_fn_images(images, invoked_by_image, taxonomy)
        if invoked_by_image is not None
        else 0
    )
    return EvalReport(
        per_class_ap=per_class_ap,
        map=mean_ap,
        classification_error=err,
        confusion=confusion,
        fn_image_count=fn_images,
        matched_count=matched_total,
        stage1_inferences=stage1_inferences,
        stage2_inferences=stage2_inferences,
    )
