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
env(k) = max_{j >= k} tp_j / j over the TP ranks k. The TP ranks are walked
backwards with the best precision kept as an integer pair (tp_j, j),
compared by cross-multiplication; consecutive TP ranks under the same
envelope value are counted and added as one ``Fraction``.

``evaluate_run`` matches and scores a whole run on columns: one numpy
row per detection and per ground truth, the matcher of ``_kernels``
over every image at once, and the scores as array reductions over its
matches. For a cascade run it also scores the FN-aware figures from
those same matches: the FN images, the routed positive images, their
stage-2 mAP and the FN-adjusted mAP. Its ``EvalReport`` holds exactly
what the report prints. It is the one way to match and score: one
image, or any subset of a run, is scored by calling it on those images.

Benchmark with ``python3 perfbench/run.py --workload W --seed 1
--seconds 30 --trace 0|1``; ``python3 perfbench/selftest.py`` checks
the benchmark itself.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from ._kernels import box_rows, iou, match_columns  # iou is re-exported
from .core import MISS, AnnotatedImage, ClassTaxonomy, Detection, check_int, check_number
from .errors import ValidationError


class NoGroundTruthError(ValidationError):
    """AP requested for a class with no ground-truth objects."""


def check_iou_threshold(value, name: str = "iou_threshold") -> float:
    """The one rule of an IoU threshold: a finite number in (0, 1]."""
    return check_number(value, name, above=0, at_most=1)


def average_precision(records: Sequence[tuple[float, bool]], n_gt: int) -> float:
    """Area under the all-points-interpolated precision-recall curve.

    records: (confidence, is_true_positive) for every detection of one
    class, as pairs or as the rows of an (n, 2) array; n_gt: ground-truth
    count of that class, an int. Computed with exact rational arithmetic
    and rounded to float once at the end. A confidence that is not finite
    and an ``n_gt`` that is not an int are a ValidationError, ``n_gt`` <= 0
    a NoGroundTruthError.
    """
    if check_int(n_gt, "n_gt") <= 0:
        raise NoGroundTruthError("average precision undefined without ground truth")
    rows = np.asarray(records, dtype=float).reshape(-1, 2)
    if not np.isfinite(rows[:, 0]).all():
        raise ValidationError("average_precision needs finite confidences")
    # descending confidence, ties keep input order; the ranks of the TPs
    ranks = (np.flatnonzero(rows[np.argsort(-rows[:, 0], kind="stable"), 1]) + 1).tolist()
    # walk the TPs backwards: (best_tp, best_rank) is the envelope
    # max_{j >= rank} tp_j / j, which an FP rank never attains; `run`
    # counts the TP ranks under it
    area, run, best_tp, best_rank = Fraction(0), 0, 0, 1
    for tp, rank in zip(range(len(ranks), 0, -1), reversed(ranks)):
        if tp * best_rank > best_tp * rank:
            area += Fraction(run * best_tp, best_rank)
            run, best_tp, best_rank = 0, tp, rank
        run += 1
    area += Fraction(run * best_tp, best_rank)
    return float(area / n_gt)


def map_with_fn_accounting(
    stage2_map: float, routed_positive_images: int, fn_images: int
) -> float:
    """Cascade-level mAP with image-level false negatives rated zero.

    Each positive image the first stage failed to route contributes a
    zero precision term weighted 1/(routed + fn); the routed images
    carry the second-stage mAP. Negative images never enter the
    denominator. Equals ``stage2_map`` when fn_images == 0. A
    ``stage2_map`` outside [0, 1] and a count that is not an int >= 0
    are a ValidationError.
    """
    stage2_map = check_number(stage2_map, "stage2_map", at_least=0, at_most=1)
    check_int(routed_positive_images, "routed_positive_images", at_least=0)
    check_int(fn_images, "fn_images", at_least=0)
    total = routed_positive_images + fn_images
    if total < 1:
        raise ValidationError("zero positive inference images")
    return float(Fraction(stage2_map) * Fraction(routed_positive_images, total))


@dataclass(frozen=True)
class EvalReport:
    """Aggregated evaluation of one detection run; every field is
    serialized by ``to_json``.

    ``map`` is the mean of per-class APs over classes with ground truth;
    ``classification_error`` is wrong/matched over all matched
    detections (0.0 when nothing matched — counts stay visible in the
    confusion matrix). ``fn_image_count`` counts positive images whose
    objects' general class had no covering stage-2 invocation.

    The last three fields are set for a cascade run only (None
    otherwise): ``routed_positive_images`` counts the positive images
    that are not FN images, ``map_stage2_routed`` is the mAP over them,
    and ``map_fn_adjusted`` is that mAP with the FN images rated zero.
    """

    per_class_ap: Mapping[str, float]
    map: float
    classification_error: float
    confusion: Mapping[str, Mapping[str, int]]
    fn_image_count: int
    matched_count: int = 0
    routed_positive_images: int | None = None
    map_stage2_routed: float | None = None
    map_fn_adjusted: float | None = None

    def to_json(self) -> dict:
        doc = {
            "per_class_ap": dict(self.per_class_ap),
            "map": self.map,
            "classification_error": self.classification_error,
            "confusion": {t: dict(p) for t, p in self.confusion.items()},
            "fn_image_count": self.fn_image_count,
            "matched_count": self.matched_count,
        }
        if self.routed_positive_images is not None:
            doc["routed_positive_images"] = self.routed_positive_images
            doc["map_stage2_routed"] = self.map_stage2_routed
            doc["map_fn_adjusted"] = self.map_fn_adjusted
        return doc


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


def _label_codes(taxonomy: ClassTaxonomy, level: str, dets, gts, claimed):
    """The sorted labels of ``dets`` and ``gts`` at ``level``; as codes into
    them, each detection's label, the label of the ground truth it
    claimed (``claimed``: an index into ``gts``, or -1) and each ground
    truth's label."""
    det_labels, gt_labels = [d.label for d in dets], [o.fine_label for o in gts]
    codes = {lbl: i for i, lbl in enumerate(dict.fromkeys(det_labels + gt_labels))}
    projected = [taxonomy.label_at_level(lbl, level) for lbl in codes]
    names = sorted(set(projected))
    to_level = np.array([names.index(p) for p in projected], dtype=np.intp)
    pred = to_level[np.fromiter(map(codes.__getitem__, det_labels), np.intp, len(dets))]
    gt_true = to_level[np.fromiter(map(codes.__getitem__, gt_labels), np.intp, len(gts))]
    return names, pred, np.append(gt_true, -1)[claimed], gt_true


def _score(conf, names, pred, true, gt_true) -> EvalReport:
    """Scores from columns: per detection its confidence, its label code
    ``pred`` and the label code of the ground truth it claimed, or -1
    (``true``); per ground truth its label code (``_label_codes``). AP
    ties break by detection order."""
    k = len(names)
    matched = true >= 0
    pairs = np.bincount(true[matched] * k + pred[matched], minlength=k * k).reshape(k, k)
    gt_n = np.bincount(gt_true, minlength=k)
    missed = gt_n - pairs.sum(axis=1)
    matched_total = int(matched.sum())
    wrong_total = matched_total - int(pairs.trace())
    hits = np.column_stack((conf, pred == true))
    confusion: dict[str, dict[str, int]] = {}
    per_class_ap = {}
    for c in np.flatnonzero(gt_n).tolist():
        row = {names[p]: n for p, n in enumerate(pairs[c].tolist()) if n}
        if missed[c]:
            row[MISS] = int(missed[c])
        confusion[names[c]] = row
        per_class_ap[names[c]] = average_precision(hits[pred == c], int(gt_n[c]))
    mean_ap = sum(map(Fraction, per_class_ap.values())) / len(per_class_ap) if per_class_ap else 0
    err = wrong_total / matched_total if matched_total else 0.0
    return EvalReport(per_class_ap=per_class_ap, map=float(mean_ap), classification_error=err,
                      confusion=confusion, fn_image_count=0, matched_count=matched_total)


def evaluate_run(
    images: Sequence[AnnotatedImage],
    detections: Iterable[Sequence[Detection]],
    taxonomy: ClassTaxonomy,
    *,
    level: str = "fine",
    iou_threshold: float = 0.5,
    invoked: Sequence[Sequence[str]] | None = None,
) -> EvalReport:
    """Match and score a whole run at the given label level.

    ``detections`` yields each image's detections, once (it may be a
    generator), and ``invoked`` holds each image's invoked generals, both
    aligned with ``images``; a length mismatch is a ValueError. A level
    other than "fine" or "general", and a confidence or box number that
    is not finite, are a ValidationError. ``invoked`` marks a cascade
    run: the report then also carries the FN images and the
    routed-subset and FN-adjusted mAPs, scored from the same matches.
    Omit it for flat baselines. AP ties break by the order of images.
    """
    check_iou_threshold(iou_threshold)
    if level not in ("fine", "general"):
        raise ValidationError(f"unknown level {level!r}")
    per_image = [dets for _, dets in zip(images, detections, strict=True)]
    dets = [d for image_dets in per_image for d in image_dets]
    gts = [o for img in images for o in img.objects]
    conf = np.array([d.confidence for d in dets], dtype=float)
    det_xywh, gt_xywh = box_rows(d.box for d in dets), box_rows(o.box for o in gts)
    if not all(np.isfinite(column).all() for column in (conf, det_xywh, gt_xywh)):
        raise ValidationError("evaluate_run needs finite confidences and box numbers")
    det_counts = np.array([len(image_dets) for image_dets in per_image], dtype=np.intp)
    gt_counts = np.array([len(img.objects) for img in images], dtype=np.intp)
    claimed = match_columns(det_xywh, conf, det_counts, gt_xywh, gt_counts, iou_threshold)
    names, pred, true, gt_true = _label_codes(taxonomy, level, dets, gts, claimed)
    report = _score(conf, names, pred, true, gt_true)
    if invoked is None:
        return report
    # FN-aware total mAP: the mAP over the positive images that are not
    # FN images (each reached every stage-2 detector it needed), scaled
    # down by the FN images
    flags = np.array(fn_image_flags(images, invoked, taxonomy), dtype=bool)
    routed = (gt_counts > 0) & ~flags
    det_in, gt_in = np.repeat(routed, det_counts), np.repeat(routed, gt_counts)
    n_routed, fn_images = int(routed.sum()), int(flags.sum())
    routed_map = _score(conf[det_in], names, pred[det_in], true[det_in], gt_true[gt_in]).map
    fn_adjusted = report.map  # neither routed nor FN images
    if n_routed or fn_images:
        fn_adjusted = map_with_fn_accounting(routed_map, n_routed, fn_images)
    return replace(report, fn_image_count=fn_images, routed_positive_images=n_routed,
                   map_stage2_routed=routed_map, map_fn_adjusted=fn_adjusted)
