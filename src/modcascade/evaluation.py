"""Detection evaluation: IoU matching, AP/mAP, FN-aware mAP, error rates.

Matching is class-agnostic greedy: a detection may claim a ground truth
of another class and then count as a classification error ("right box,
wrong label"), which keeps classification error measurable separately
from localization.

AP is the area under the all-points-interpolated precision-recall curve
(PASCAL VOC; Everingham et al., IJCV 2010), computed exactly and rounded
to float once, so results are bit-reproducible and independent of
summation order. Every true positive at rank k raises recall by
1/n_gt, so the area is (1/n_gt) times the sum of the precision envelope
env(k) = max_{j >= k} tp_j / j over the TP ranks k. The ranks are walked
backwards with the best precision kept as an integer pair (tp_j, j),
compared by cross-multiplication; consecutive TP ranks under the same
envelope value are counted and added as one ``Fraction``.

``score_matches`` is the one scorer: it turns per-image matches into
AP, mAP, classification error and confusion, deciding at its own label
level whether a matched detection's label is right. ``evaluate_run``
takes the detections (and invoked generals) as sequences aligned with
the images, matches each image once and keeps the ``MatchResult``s on
its report, so a report over a subset of the images needs no second
matching pass.

IoU and greedy matching have one plain-Python implementation, in
``_kernels``: there is no compiled backend to build or select.
Benchmark with ``python3 perfbench/run.py --workload W --seed 1
--seconds 30 --trace 0|1``; ``python3 perfbench/selftest.py`` checks
the benchmark itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from ._kernels import greedy_match, iou  # iou is re-exported
from .core import MISS, AnnotatedImage, ClassTaxonomy, Detection, GroundTruthObject
from .core import check_number
from .errors import ValidationError


class NoGroundTruthError(ValidationError):
    """AP requested for a class with no ground-truth objects."""


@dataclass(frozen=True, slots=True)
class MatchedDetection:
    """One detection with its claimed ground truth (None = false positive)."""

    detection: Detection
    ground_truth: GroundTruthObject | None


@dataclass(frozen=True, slots=True)
class MatchResult:
    """Per-image matching outcome at a fixed IoU threshold.

    ``matched`` holds one entry per input detection, in input order;
    ``false_negatives`` are the ground truths no detection claimed.
    """

    matched: tuple[MatchedDetection, ...]
    false_negatives: tuple[GroundTruthObject, ...]


def check_iou_threshold(value, name: str = "iou_threshold") -> float:
    """The one rule of an IoU threshold: a finite number in (0, 1]."""
    return check_number(value, name, above=0, at_most=1)


def match_detections(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthObject],
    iou_threshold: float,
) -> MatchResult:
    """Greedily assign detections to ground truths, class-agnostically.

    Detections are processed in descending confidence (ties keep input
    order); each claims the unclaimed ground truth with the highest
    IoU >= threshold, IoU ties going to the lowest index.
    """
    check_iou_threshold(iou_threshold)
    assign = greedy_match(dets, gts, iou_threshold)
    matched = tuple(
        MatchedDetection(det, None if g < 0 else gts[g]) for det, g in zip(dets, assign)
    )
    claimed = set(assign)
    fns = tuple(gt for g, gt in enumerate(gts) if g not in claimed)
    return MatchResult(matched, fns)


def average_precision(records: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """Area under the all-points-interpolated precision-recall curve.

    records: (confidence, is_true_positive) for every detection of one
    class; n_gt: ground-truth count of that class. Computed with exact
    rational arithmetic and rounded to float once at the end.
    """
    if n_gt <= 0:
        raise NoGroundTruthError("average precision undefined without ground truth")
    # descending confidence, ties keep input order
    hits = [bool(tp) for _, tp in sorted(records, key=lambda r: -r[0])]
    tp = sum(hits)
    if tp == 0:
        return 0.0
    # walk the ranks backwards: (best_tp, best_rank) is the envelope
    # max_{j >= rank} tp_j / j; `run` counts the TP ranks under it
    area = Fraction(0)
    best_tp, best_rank = 0, 1
    run = 0
    for rank in range(len(hits), 0, -1):
        if tp * best_rank > best_tp * rank:
            if run:
                area += Fraction(run * best_tp, best_rank)
                run = 0
            best_tp, best_rank = tp, rank
        if hits[rank - 1]:
            run += 1
            tp -= 1
    area += Fraction(run * best_tp, best_rank)
    return float(area / n_gt)


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
    ``matches`` holds the per-image match results the report was scored
    from, in image order, and ``fn_image_flags`` the per-image FN flags
    the count sums (empty without FN accounting); neither is serialized.
    """

    per_class_ap: Mapping[str, float]
    map: float
    classification_error: float
    confusion: Mapping[str, Mapping[str, int]]
    fn_image_count: int
    matched_count: int = 0
    stage1_inferences: int = 0
    stage2_inferences: int = 0
    matches: tuple[MatchResult, ...] = field(default=(), compare=False, repr=False)
    fn_image_flags: tuple[bool, ...] = field(default=(), compare=False, repr=False)

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


def fn_image_flags(
    images: Sequence[AnnotatedImage],
    invoked: Sequence[Sequence[str]],
    taxonomy: ClassTaxonomy,
) -> tuple[bool, ...]:
    """Per image, whether it is an FN image: a positive image holding an
    object whose general class was not invoked on it. Every other
    positive image reached each stage-2 detector it needed. ``invoked``
    holds each image's invoked general classes, aligned with ``images``;
    a length mismatch is a ValueError."""
    return tuple(
        any(taxonomy.general_of(o.fine_label) not in generals for o in img.objects)
        for img, generals in zip(images, invoked, strict=True)
    )


def score_matches(
    matches: Sequence[MatchResult],
    taxonomy: ClassTaxonomy,
    *,
    level: str = "fine",
    fn_image_flags: Sequence[bool] = (),
    stage1_inferences: int = 0,
    stage2_inferences: int = 0,
) -> EvalReport:
    """Score per-image match results at the given label level.

    Every ground truth is either claimed by one detection or a false
    negative, so the per-class ground-truth counts come from the
    matches alone. A matched detection is right when its label and its
    ground truth's label are the same at ``level``. AP ties break by the
    order of ``matches``.
    """
    records: dict[str, list[tuple[float, bool]]] = {}
    gt_counts: dict[str, int] = {}
    confusion: dict[str, dict[str, int]] = {}
    at_level: dict[str, str] = {}
    matched_total = 0
    wrong_total = 0

    def project(label: str) -> str:
        lbl = at_level.get(label)
        if lbl is None:
            lbl = at_level[label] = taxonomy.label_at_level(label, level)
        return lbl

    for result in matches:
        for m in result.matched:
            det_lbl = project(m.detection.label)
            gt = m.ground_truth
            true = project(gt.fine_label) if gt is not None else None
            records.setdefault(det_lbl, []).append((m.detection.confidence, det_lbl == true))
            if gt is not None:
                matched_total += 1
                wrong_total += det_lbl != true
                gt_counts[true] = gt_counts.get(true, 0) + 1
                row = confusion.setdefault(true, {})
                row[det_lbl] = row.get(det_lbl, 0) + 1
        for gt in result.false_negatives:
            true = project(gt.fine_label)
            gt_counts[true] = gt_counts.get(true, 0) + 1
            row = confusion.setdefault(true, {})
            row[MISS] = row.get(MISS, 0) + 1

    per_class_ap = {
        lbl: average_precision(records.get(lbl, []), n)
        for lbl, n in sorted(gt_counts.items())
    }
    if per_class_ap:
        mean_ap = float(sum(Fraction(v) for v in per_class_ap.values()) / len(per_class_ap))
    else:
        mean_ap = 0.0
    err = wrong_total / matched_total if matched_total else 0.0
    return EvalReport(
        per_class_ap=per_class_ap,
        map=mean_ap,
        classification_error=err,
        confusion=confusion,
        fn_image_count=sum(fn_image_flags),
        matched_count=matched_total,
        stage1_inferences=stage1_inferences,
        stage2_inferences=stage2_inferences,
        matches=tuple(matches),
        fn_image_flags=tuple(fn_image_flags),
    )


def evaluate_run(
    images: Sequence[AnnotatedImage],
    detections: Iterable[Sequence[Detection]],
    taxonomy: ClassTaxonomy,
    *,
    level: str = "fine",
    iou_threshold: float = 0.5,
    invoked: Sequence[Sequence[str]] | None = None,
    stage1_inferences: int = 0,
    stage2_inferences: int = 0,
) -> EvalReport:
    """Match and score a whole run at the given label level.

    ``detections`` yields each image's detections, once (it may be a
    generator), and ``invoked`` holds each image's invoked generals, both
    aligned with ``images``; a length mismatch is a ValueError.
    ``invoked`` enables FN-image accounting for cascade runs; omit it for
    flat baselines. Deterministic: images are folded in the given order,
    AP ties break by that order. Each image is matched once, and the
    report keeps the results in ``matches`` so that a subset can be
    rescored with ``score_matches``.
    """
    matches = [
        match_detections(dets, img.objects, iou_threshold)
        for img, dets in zip(images, detections, strict=True)
    ]
    return score_matches(
        matches,
        taxonomy,
        level=level,
        fn_image_flags=(
            fn_image_flags(images, invoked, taxonomy) if invoked is not None else ()
        ),
        stage1_inferences=stage1_inferences,
        stage2_inferences=stage2_inferences,
    )
