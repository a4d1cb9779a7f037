"""The one IoU and the one greedy matcher behind evaluation.

Plain Python on purpose: matching sees a handful of boxes per image,
where a scalar loop costs less than building arrays for them.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the matching implementation, always ``"python"``.

    The benchmark records it on its env line.
    """
    return "python"


def iou(a, b) -> float:
    """Intersection area over union area of two boxes; 0 when disjoint."""
    ax1, ay1, ax2, ay2 = a.as_xyxy()
    bx1, by1, bx2, by2 = b.as_xyxy()
    iw = max(min(ax2, bx2) - max(ax1, bx1), 0.0)
    ih = max(min(ay2, by2) - max(ay1, by1), 0.0)
    inter = iw * ih
    union = (a.w * a.h) + (b.w * b.h) - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def greedy_match(dets, gts, iou_threshold: float) -> list[int]:
    """Greedy detection-to-ground-truth assignment (PASCAL VOC rule).

    Detections are visited in descending confidence, ties keeping input
    order; each claims the unclaimed ground truth with the highest
    IoU >= iou_threshold, IoU ties going to the lowest index. Returns
    one ground-truth index per detection in input order, -1 if none.
    """
    assign = [-1] * len(dets)
    claimed = [False] * len(gts)
    for d in sorted(range(len(dets)), key=lambda i: -dets[i].confidence):
        box = dets[d].box
        best = -1
        best_iou = -1.0
        for g, gt in enumerate(gts):
            if claimed[g]:
                continue
            v = iou(box, gt.box)
            if v >= iou_threshold and v > best_iou:
                best, best_iou = g, v
        if best >= 0:
            assign[d] = best
            claimed[best] = True
    return assign
