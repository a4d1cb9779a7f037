"""The one IoU and the one greedy matcher behind evaluation.

``iou_rows`` is the one statement of the IoU arithmetic, over rows of
boxes; ``iou`` is it applied to one pair. The matcher works on columns:
the boxes of a whole run as numpy rows, grouped by image. It computes
the IoU of every same-image pair with ``iou_rows``, and only the pairs
at or above the threshold reach the greedy rule's Python loop.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

# pairs per IoU chunk of whole detections, ~2 MB of temporaries; one chunk for
# all 138k pairs of a crowded benchmark run raised its peak RSS by 0.4 MB
_CHUNK = 16384


def backend_name() -> str:
    """Name of the matching implementation, always ``"python"``.

    The benchmark records it on its env line.
    """
    return "python"


def box_rows(boxes) -> np.ndarray:
    """The boxes' ``x, y, w, h`` as the rows of an (n, 4) float array."""
    rows = [(b.x, b.y, b.w, b.h) for b in boxes]
    return np.fromiter(chain.from_iterable(rows), float, 4 * len(rows)).reshape(-1, 4)


def iou_rows(a, b) -> np.ndarray:
    """The IoU of each row of ``a`` with the same row of ``b``, both
    ``box_rows`` arrays: intersection area over union area, 0 when the
    boxes are disjoint or the union is not positive."""
    ax, ay, aw, ah = a.T
    bx, by, bw, bh = b.T
    with np.errstate(all="ignore"):  # as Python floats: no warnings
        iw = np.maximum(np.minimum(ax + aw, bx + bw) - np.maximum(ax, bx), 0.0)
        ih = np.maximum(np.minimum(ay + ah, by + bh) - np.maximum(ay, by), 0.0)
        inter = iw * ih
        union = (aw * ah) + (bw * bh) - inter
        return np.where(union <= 0.0, 0.0, inter / union)


def iou(a, b) -> float:
    """Intersection area over union area of two boxes, 0 when disjoint:
    ``iou_rows`` of one pair."""
    return float(iou_rows(box_rows([a]), box_rows([b]))[0])


def match_columns(det_xywh, det_conf, det_counts, gt_xywh, gt_counts, iou_threshold):
    """Greedy detection-to-ground-truth assignment (PASCAL VOC rule) of a
    run: ``det_xywh`` (``box_rows``) and ``det_conf`` hold every image's
    detections in turn, ``det_counts`` how many each image has, and
    ``gt_xywh``, ``gt_counts`` the same of the ground truths. In each
    image, detections are visited in descending confidence, ties keeping
    input order; each claims the unclaimed ground truth with the highest
    IoU >= iou_threshold, IoU ties going to the lowest index. Returns
    per detection the run-wide index of its ground truth, or -1."""
    # each detection's pairs, with the ground truths of its image in order
    n_pairs = np.repeat(gt_counts, det_counts)
    pair_end = np.cumsum(n_pairs)
    first_gt = np.repeat(np.cumsum(gt_counts) - gt_counts, det_counts) - (pair_end - n_pairs)
    found, d0 = [], 0
    while d0 < len(n_pairs):  # whole detections: up to _CHUNK pairs, or one's own
        start = pair_end[d0] - n_pairs[d0]
        d1 = max(int(np.searchsorted(pair_end, start + _CHUNK, side="right")), d0 + 1)
        d = np.repeat(np.arange(d0, d1), n_pairs[d0:d1])
        g = first_gt[d] + np.arange(start, pair_end[d1 - 1])
        v = iou_rows(det_xywh[d], gt_xywh[g])
        hit = v >= iou_threshold
        found.append((d[hit], g[hit], v[hit]))
        d0 = d1
    claimed = np.full(len(det_conf), -1, dtype=np.intp)
    if not found:
        return claimed
    d, g, v = (np.concatenate(c) for c in zip(*found))
    # images never share a ground truth, so one run-wide order serves
    # them all; the pairs come detection by detection in input order,
    # ground truths in index order, and the stable sort keeps that order
    # within one confidence
    order = np.argsort(-det_conf[d], kind="stable")
    taken: set[int] = set()
    det, best, best_iou = -1, -1, 0.0
    for dk, gk, vk in zip(d[order].tolist(), g[order].tolist(), v[order].tolist()):
        if dk != det:
            if best >= 0:  # the previous detection claims its best
                taken.add(best)
                claimed[det] = best
            det, best, best_iou = dk, -1, 0.0
        if vk > best_iou and gk not in taken:
            best, best_iou = gk, vk
    if best >= 0:
        claimed[det] = best
    return claimed
