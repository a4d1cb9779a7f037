"""Independent reference implementations used as test oracles.

These deliberately avoid the library's computation paths: the Bayes
oracle samples the generative story directly (class by prior, feature
by conditional, essential-flag by weight, classify by the larger
weighted mass) instead of summing minima; the AP oracle builds the whole
precision-recall curve as ``Fraction`` points; the matchers loop over
each image's boxes in Python, and the run evaluation matches and scores
image by image, from objects, with the AP oracle; the escaper walks a
string one character at a time; a detection is the dict of lists the
report was once built from; the object RNG is seeded through numpy's
own ``SeedSequence`` and ``PCG64``, one stream at a time; the ziggurat
tables are read off numpy's own normal draws from crafted PCG64 states;
a whole run's report is built image by image from the definitions of
routing, simulation and scoring, with the scalar detector and the run
evaluation oracle.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np

from modcascade import MISS, DetectorHandle, FeatureClassModel, detect


# numpy 2 renamed trapz; the oldest supported numpy has only the old name
_trapezoid = getattr(np, "trapezoid", None) or np.trapz


def beta_tail_above(mean: float, spread: float, tau: float) -> float:
    """P(X >= tau) for the Beta confidence law, by direct quadrature."""
    kappa = max(mean * (1.0 - mean) / (spread * spread) - 1.0, 1e-3)
    a, b = mean * kappa, (1.0 - mean) * kappa
    x = np.linspace(1e-12, tau, 200_001)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    logpdf = (a - 1) * np.log(x) + (b - 1) * np.log1p(-x) - log_norm
    return 1.0 - float(_trapezoid(np.exp(logpdf), x))


def cascade_v1_error_oracle(
    stage1_err: float,
    stage1_miss: float,
    stage2_err: float,
    tau: float,
    mean_correct: float = 0.9,
    mean_wrong: float = 0.6,
    spread: float = 0.08,
) -> float:
    """Expected per-image v1 composite classification error.

    Routing gates on confidence: correct generals clear tau with the
    mean_correct law, wrong generals with the mean_wrong law. A
    correctly routed object errs at the stage-2 rate; a misrouted one
    always gets a wrong label; gated-out and missed objects leave the
    matched set entirely.
    """
    gate_correct = beta_tail_above(mean_correct, spread, tau)
    gate_wrong = beta_tail_above(mean_wrong, spread, tau)
    p_correct_route = (1.0 - stage1_miss) * (1.0 - stage1_err) * gate_correct
    p_wrong_route = (1.0 - stage1_miss) * stage1_err * gate_wrong
    return (p_correct_route * stage2_err + p_wrong_route) / (
        p_correct_route + p_wrong_route
    )


def mc_bayes_error(model: FeatureClassModel, c0: str, c1: str, n: int, seed: int):
    """Monte Carlo two-class weighted Bayes error and its standard error.

    Draw the true class from the pair (priors renormalized), a feature
    from its conditional, and an essential flag from its weight; the
    Bayes-optimal rule picks the class with the larger weighted mass at
    that feature (ties to c0). The error frequency, scaled back by the
    pair's prior mass, estimates the summed-minima overlap.
    """
    rng = np.random.default_rng(seed)
    p0, p1 = model.priors[c0], model.priors[c1]
    pair_mass = p0 + p1
    t0, t1 = weighted_masses_oracle(model, c0, c1)

    is_c0 = rng.random(n) < (p0 / pair_mass)
    cum0 = np.cumsum(model.conditional[c0])
    cum1 = np.cumsum(model.conditional[c1])
    u = rng.random(n)
    feats = np.where(
        is_c0,
        np.searchsorted(cum0, u * cum0[-1], side="right"),
        np.searchsorted(cum1, u * cum1[-1], side="right"),
    )
    feats = np.clip(feats, 0, model.n_features - 1)
    w0 = np.asarray(model.weights[c0])[feats]
    w1 = np.asarray(model.weights[c1])[feats]
    essential = rng.random(n) < np.where(is_c0, w0, w1)
    # classifier: c0 wins ties; an essential activation errs when the
    # true class's weighted mass loses
    err_if_c0 = t0[feats] < t1[feats]
    err_if_c1 = t1[feats] <= t0[feats]
    err = np.where(is_c0, err_if_c0, err_if_c1) & essential
    freq = float(np.mean(err))
    estimate = pair_mass * freq
    se = pair_mass * float(np.sqrt(max(freq * (1.0 - freq), 1e-300) / n))
    return estimate, se


def weighted_masses_oracle(model: FeatureClassModel, c0: str, c1: str):
    """``errormodel``'s weighted masses as numpy arrays, computed by its
    former numpy formula conditional * prior * weights."""
    return tuple(
        np.asarray(model.conditional[c]) * model.priors[c] * np.asarray(model.weights[c])
        for c in (c0, c1)
    )


def pdf_curves_oracle(model: FeatureClassModel, c0: str, c1: str):
    """``pdf_curves`` by its former numpy formula: ``np.minimum`` of the masses."""
    t0, t1 = weighted_masses_oracle(model, c0, c1)
    return list(zip(range(len(t0)), t0.tolist(), t1.tolist(), np.minimum(t0, t1).tolist()))


def merge_general_oracle(model: FeatureClassModel, members, general: str):
    """The general class ``merge_general`` adds, by its former numpy formula:
    (prior, mixture conditional, member-maximum weights)."""
    members = tuple(dict.fromkeys(members))
    prior_g = sum(model.priors[m] for m in members)
    cond_g = sum(np.asarray(model.conditional[m]) * model.priors[m] for m in members) / prior_g
    weights_g = np.maximum.reduce([np.asarray(model.weights[m]) for m in members])
    return prior_g, cond_g.tolist(), weights_g.tolist()


def random_model(rng: np.random.Generator, n_features: int, n_classes: int,
                 sparse: bool = False) -> FeatureClassModel:
    """Random model; ``sparse`` zeroes disjoint-ish chunks of support."""
    labels = [f"c{i}" for i in range(n_classes)]
    priors = rng.dirichlet(np.ones(n_classes))
    conditional = {}
    weights = {}
    for i, c in enumerate(labels):
        raw = rng.random(n_features)
        if sparse:
            mask = rng.random(n_features) < 0.5
            raw = raw * mask
            if raw.sum() == 0:
                raw[rng.integers(n_features)] = 1.0
        conditional[c] = raw / raw.sum()
        weights[c] = rng.random(n_features)
    return FeatureClassModel(
        priors={c: float(p) for c, p in zip(labels, priors)},
        conditional=conditional,
        weights=weights,
    )


def fraction_average_precision(records, n_gt: int) -> float:
    """All-points AP as the area under the full rational PR curve.

    One (recall, precision) point per rank, a running-max precision
    envelope from the right, and the area summed over every recall step.
    """
    order = sorted(range(len(records)), key=lambda i: -records[i][0])
    tp = 0
    points = []  # (recall, precision) after each detection
    for rank, i in enumerate(order, start=1):
        if records[i][1]:
            tp += 1
        points.append((Fraction(tp, n_gt), Fraction(tp, rank)))
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


def iou_raw(a, b):
    """IoU of two ``(x, y, w, h)`` tuples, in the operations of ``iou``."""
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
            v = iou_raw((db.x, db.y, db.w, db.h), (gt.box.x, gt.box.y, gt.box.w, gt.box.h))
            if v >= threshold and (best is None or v > best_iou):
                best, best_iou = g, v
        if best is not None:
            assign[d] = best
            claimed.add(best)
    return assign


def greedy_loop(dets, gts, iou_threshold: float) -> list[int]:
    """One image's greedy matching as a scalar loop, with the IoU inlined
    in the operations of ``iou``: per detection, the index of the ground
    truth it claimed, or -1."""
    assign = [-1] * len(dets)
    targets = []
    for gt in gts:
        b = gt.box
        targets.append((b.x, b.y, b.x + b.w, b.y + b.h, b.w * b.h))
    claimed = [False] * len(gts)
    for d in sorted(range(len(dets)), key=lambda i: -dets[i].confidence):
        a = dets[d].box
        ax1, ay1 = a.x, a.y
        ax2, ay2 = ax1 + a.w, ay1 + a.h
        a_area = a.w * a.h
        best = -1
        best_iou = -1.0
        for g, (bx1, by1, bx2, by2, b_area) in enumerate(targets):
            if claimed[g]:
                continue
            iw = min(ax2, bx2) - max(ax1, bx1)
            ih = min(ay2, by2) - max(ay1, by1)
            if iw <= 0.0 or ih <= 0.0:
                v = 0.0
            else:
                inter = iw * ih
                union = a_area + b_area - inter
                v = inter / union if union > 0.0 else 0.0
            if v >= iou_threshold and v > best_iou:
                best, best_iou = g, v
        if best >= 0:
            assign[d] = best
            claimed[best] = True
    return assign


def score_loop(matches, taxonomy, level: str) -> dict:
    """The scores of per-image ``(detections, claimed, false_negatives)``
    triples, as ``EvalReport.to_json`` of a flat run writes them, from
    one pass over every detection and missed ground truth."""
    # each label valid at ``level``, as that level names it
    project = {g: g for g in taxonomy.fine_of} if level == "general" else {}
    for g, fines in taxonomy.fine_of.items():
        project.update((f, g if level == "general" else f) for f in fines)
    records, gt_counts, confusion = {}, {}, {}
    matched_total = wrong_total = 0
    for dets, claimed, fns in matches:
        for det, gt in zip(dets, claimed):
            det_lbl = project[det.label]
            true = project[gt.fine_label] if gt is not None else None
            records.setdefault(det_lbl, []).append((det.confidence, det_lbl == true))
            if gt is not None:
                matched_total += 1
                wrong_total += det_lbl != true
                gt_counts[true] = gt_counts.get(true, 0) + 1
                row = confusion.setdefault(true, {})
                row[det_lbl] = row.get(det_lbl, 0) + 1
        for gt in fns:
            true = project[gt.fine_label]
            gt_counts[true] = gt_counts.get(true, 0) + 1
            row = confusion.setdefault(true, {})
            row[MISS] = row.get(MISS, 0) + 1
    per_class_ap = {
        lbl: fraction_average_precision(records.get(lbl, []), n)
        for lbl, n in sorted(gt_counts.items())
    }
    mean_ap = 0.0
    if per_class_ap:
        mean_ap = float(sum(map(Fraction, per_class_ap.values())) / len(per_class_ap))
    return {
        "per_class_ap": per_class_ap,
        "map": mean_ap,
        "classification_error": wrong_total / matched_total if matched_total else 0.0,
        "confusion": confusion,
        "fn_image_count": 0,
        "matched_count": matched_total,
    }


def evaluate_run_oracle(images, detections, taxonomy, *, level="fine", iou_threshold=0.5,
                        invoked=None) -> dict:
    """``evaluate_run(...).to_json()`` computed image by image: each image
    matched by ``greedy_loop``, the run scored by ``score_loop``, and for
    a cascade run the routed positive images scored again on their own."""
    matches = []
    for img, dets in zip(images, detections, strict=True):
        assign = greedy_loop(dets, img.objects, iou_threshold)
        claimed = [None if g < 0 else img.objects[g] for g in assign]
        fns = [gt for g, gt in enumerate(img.objects) if g not in assign]
        matches.append((dets, claimed, fns))
    doc = score_loop(matches, taxonomy, level)
    if invoked is None:
        return doc
    fn = [
        any(taxonomy.general_of(o.fine_label) not in generals for o in img.objects)
        for img, generals in zip(images, invoked, strict=True)
    ]
    routed = [m for img, m, f in zip(images, matches, fn) if img.objects and not f]
    routed_map = score_loop(routed, taxonomy, level)["map"]
    total = len(routed) + sum(fn)
    doc.update(
        fn_image_count=sum(fn),
        routed_positive_images=len(routed),
        map_stage2_routed=routed_map,
        map_fn_adjusted=(
            float(Fraction(routed_map) * Fraction(len(routed), total)) if total else doc["map"]
        ),
    )
    return doc


_CHAR_ESCAPES = {'"': '\\"', "\\": "\\\\", "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def char_loop_escape(s: str) -> str:
    """A JSON string literal of ``s``: short escapes for quote, backslash,
    newline, return and tab, ``\\u00XX`` for every other control character
    and ``\\uXXXX`` for a surrogate, which UTF-8 cannot encode."""
    parts = ['"']
    for ch in s:
        if ch in _CHAR_ESCAPES:
            parts.append(_CHAR_ESCAPES[ch])
        elif ord(ch) < 0x20 or 0xD800 <= ord(ch) <= 0xDFFF:
            parts.append(f"\\u{ord(ch):04x}")
        else:
            parts.append(ch)
    parts.append('"')
    return "".join(parts)


def det_json(d) -> dict:
    """A ``Detection`` as the dict the report was built from before the
    writer took detections itself: its box as the list ``[x, y, w, h]``,
    its label and its confidence."""
    return {
        "box": [d.box.x, d.box.y, d.box.w, d.box.h],
        "label": d.label,
        "confidence": d.confidence,
    }


def object_rng(seed: int, image_id: str, tag) -> np.random.Generator:
    """Independent RNG stream keyed by (seed, image id, object tag): a
    128-bit blake2b digest of the key seeds numpy's PCG64."""
    digest = hashlib.blake2b(
        f"{seed}|{image_id}|{tag}".encode("utf-8"), digest_size=16
    ).digest()
    return np.random.Generator(np.random.PCG64(int.from_bytes(digest, "little")))


_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_INV = pow(_PCG_MULT, -1, 1 << 128)


def set_next_output(bitgen: np.random.PCG64, r: int, inc: int = 1) -> None:
    """Put ``bitgen`` in the state whose next 64-bit output is ``r``.

    PCG64 steps before it outputs, and the stepped state here is ``r``
    itself: its high word is 0, so XSL-RR returns the low word ``r``.
    The state before the step is ``(r - inc) * M**-1 mod 2**128``.
    """
    state = ((r - inc) * _PCG_MULT_INV) % (1 << 128)
    bitgen.state = {
        "bit_generator": "PCG64",
        "state": {"state": state, "inc": inc},
        "has_uint32": 0,
        "uinteger": 0,
    }


def ziggurat_draw(gen: np.random.Generator, r: int) -> tuple[float, bool]:
    """numpy's standard normal drawn from the output ``r``, and whether it
    returned at once: the state stepped exactly once, to ``r``."""
    set_next_output(gen.bit_generator, r)
    x = gen.standard_normal()
    return x, gen.bit_generator.state["state"]["state"] == r


def ziggurat_tables() -> tuple[list[float], list[int]]:
    """numpy's ``wi_double`` and ``ki_double``, read off its normal draws.

    A draw's low byte picks the entry ``idx``, the next bit the sign, and
    the 52 bits above it ``rabs``; the fast path returns
    ``rabs * wi[idx]`` when ``rabs < ki[idx]``. So ``rabs = 1`` gives
    ``wi[idx]``, and ``ki[idx]`` is the least ``rabs`` off the fast path,
    found by bisection.
    """
    gen = np.random.Generator(np.random.PCG64(0))
    wi, ki = [], []
    for idx in range(256):
        wi.append(ziggurat_draw(gen, 1 << 9 | idx)[0])
        lo, hi = 0, 1 << 52
        while lo < hi:
            mid = (lo + hi) // 2
            if ziggurat_draw(gen, mid << 9 | idx)[1]:
                lo = mid + 1
            else:
                hi = mid
        ki.append(lo)
    return wi, ki


def role_seed(seed: int, role: str) -> int:
    """A detector role's seed: the first 8 bytes, little-endian, of the
    blake2b digest of ``"<seed>|<role>"``."""
    digest = hashlib.blake2b(f"{seed}|{role}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def reference_routing(dataset, stage1, stage2, tau, mode) -> tuple[list, list, list, list]:
    """The cascade's four per-image columns, image by image: the stage-1
    detections (scalar ``detect``), the generals detected at confidence
    >= ``tau``, the invoked generals (in v2 the union over the image's
    sequence, an unsequenced image being its own sequence) and, per
    invoked general in sorted order, that general's detections."""
    images = dataset.images
    s1 = [tuple(detect(stage1, img)) for img in images]
    triggered = [tuple(sorted({d.label for d in dets if d.confidence >= tau})) for dets in s1]
    groups = [[img.id] for img in images]
    if mode == "v2":
        sequenced = {i for seq in dataset.sequences for i in seq}
        groups = [list(seq) for seq in dataset.sequences]
        groups += [[img.id] for img in images if img.id not in sequenced]
    union_of = {}
    trig_of = {img.id: trig for img, trig in zip(images, triggered)}
    for group in groups:
        union = tuple(sorted({g for i in group for g in trig_of[i]}))
        for i in group:
            union_of[i] = union
    invoked = [union_of[img.id] for img in images]
    s2 = [tuple(tuple(detect(stage2[g], img)) for g in inv) for img, inv in zip(images, invoked)]
    return s1, triggered, invoked, s2


def reference_report(dataset, baseline, stage1, stage2, tau, mode, iou_threshold, seed) -> dict:
    """The report ``modcascade run`` writes, as ``json.loads`` reads it,
    built by the definitions: detector profiles ``baseline``, ``stage1``
    and ``stage2`` (general -> profile) seeded per role, the routing of
    ``reference_routing``, each evaluation by ``evaluate_run_oracle``,
    and the advantage, tree-vs-flat and trace blocks."""
    images, taxonomy = dataset.images, dataset.taxonomy
    base = DetectorHandle(baseline, role_seed(seed, "baseline"))
    s1h = DetectorHandle(stage1, role_seed(seed, "stage1"))
    s2h = {g: DetectorHandle(p, role_seed(seed, f"stage2|{g}")) for g, p in stage2.items()}
    base_dets = [detect(base, img) for img in images]
    s1, triggered, invoked, s2 = reference_routing(dataset, s1h, s2h, tau, mode)
    final = [[d for dets in per_general for d in dets] for per_general in s2]
    n, n2 = len(images), sum(map(len, invoked))

    def evaluate(detections, **kw):
        return evaluate_run_oracle(images, detections, taxonomy, iou_threshold=iou_threshold, **kw)

    baseline_doc = {**evaluate(base_dets), "stage1_inferences": n, "stage2_inferences": 0}
    stage1_error = evaluate(s1, level="general")["classification_error"]
    modular_doc = {**evaluate(final, invoked=invoked),
                   "stage1_inferences": n, "stage2_inferences": n2}
    a = 1.0 - baseline_doc["classification_error"]
    acc_s1 = 1.0 - stage1_error
    acc_mod = 1.0 - modular_doc["classification_error"]
    delta1 = acc_s1 - a
    delta2 = (min(acc_mod / acc_s1, 1.0) if acc_s1 > 0 else 0.0) - a
    rhs = (a + delta1) * (a + delta2)
    tree, flat = n + n2, n * len(stage2)

    def dets_json(dets):
        return [det_json(d) for d in dets]

    return {
        "baseline": baseline_doc,
        "modular": modular_doc,
        "advantage": {"a": a, "delta1": delta1, "delta2": delta2,
                      "lhs": a, "rhs": rhs, "advantage": a < rhs},
        "tree_vs_flat": {"tree_inferences": tree, "flat_inferences": flat,
                         "ratio": flat / tree if tree else 0.0},
        "trace": {
            "mode": mode, "tau": tau, "iou_threshold": iou_threshold,
            "stage1_inferences": n, "stage2_inferences": n2,
            "images": [
                {"id": img.id, "baseline": dets_json(b), "stage1": dets_json(d1),
                 "triggered": list(trig), "invoked": list(inv),
                 "stage2": {g: dets_json(d2) for g, d2 in zip(inv, per_general)}}
                for img, b, d1, trig, inv, per_general
                in zip(images, base_dets, s1, triggered, invoked, s2)
            ],
        },
    }
