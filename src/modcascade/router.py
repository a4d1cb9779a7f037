"""The two-stage cascade: confidence-gated dispatch from a general-class
detector to per-class fine-grained detectors.

v1 routes each image on its own stage-1 detections. v2 routes whole
image sequences: a general class triggered anywhere in a sequence sends
every image of that sequence to that fine-grained detector, trading
extra inferences for recovery from stage-1 misses. Images are passed on
unchanged — no cropping or transformation.

Both modes run stage by stage: stage 1 over every image, then each
general's stage-2 detector over exactly the images routed to it, each
pass one ``detector.detect_all``. Every per-image result, from a pass
to the final detections, is a sequence in dataset order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from .core import AnnotatedImage, ClassTaxonomy, Dataset, Detection, is_finite_real
from .detector import DetectorHandle, detect_all
from .errors import ValidationError


@dataclass(frozen=True)
class RoutingConfig:
    """Cascade dispatch parameters.

    tau: stage-1 confidence threshold that triggers routing.
    mode: "v1" (per image) or "v2" (per sequence).
    """

    tau: float = 0.5
    mode: str = "v1"

    def __post_init__(self) -> None:
        if not (is_finite_real(self.tau) and 0.0 <= self.tau <= 1.0):
            raise ValidationError(f"tau {self.tau!r} is not a number in [0, 1]")
        if self.mode not in ("v1", "v2"):
            raise ValidationError(f"mode must be 'v1' or 'v2', got {self.mode!r}")


@dataclass(frozen=True, slots=True)
class ImageTrace:
    """Routing record for one image.

    ``triggered`` lists general classes this image's own stage-1
    detections put over threshold; ``invoked`` lists the fine-grained
    detectors actually run on it (equal to triggered in v1; the
    sequence-level union in v2).
    """

    image_id: str
    stage1: tuple[Detection, ...]
    triggered: tuple[str, ...]
    invoked: tuple[str, ...]
    stage2: Mapping[str, tuple[Detection, ...]]


@dataclass(frozen=True)
class RoutingTrace:
    images: tuple[ImageTrace, ...]
    stage1_inferences: int
    stage2_inferences: int


@dataclass(frozen=True)
class CascadeOutput:
    """Final fine-grained detections per image, aligned with
    ``trace.images``, plus the full trace."""

    detections: tuple[tuple[Detection, ...], ...]
    trace: RoutingTrace


def _check_stage2_coverage(
    stage2: Mapping[str, DetectorHandle], taxonomy: ClassTaxonomy
) -> None:
    missing = [g for g in taxonomy.generals if g not in stage2]
    if missing:
        raise ValidationError(f"missing stage-2 network for general classes {missing}")


def _triggered(dets, tau: float, taxonomy: ClassTaxonomy, image_id: str) -> tuple[str, ...]:
    out = set()
    for d in dets:
        if d.confidence >= tau:
            if not taxonomy.is_general(d.label):
                raise ValidationError(
                    f"stage-1 emitted non-general label {d.label!r} on image {image_id!r}"
                )
            out.add(d.label)
    return tuple(sorted(out))


def _stage2(
    stage2: Mapping[str, DetectorHandle],
    images: Sequence[AnnotatedImage],
    invoked: Sequence[tuple[str, ...]],
) -> list[dict[str, tuple[Detection, ...]]]:
    """Per image, the detections of each invoked general's detector.

    Each general's detector runs one pass over exactly the images routed
    to it. Generals run in sorted order, so every image's dict is keyed
    in its (sorted) ``invoked`` order.
    """
    routed: dict[str, list[int]] = {}
    for k, generals in enumerate(invoked):
        for g in generals:
            routed.setdefault(g, []).append(k)
    out: list[dict[str, tuple[Detection, ...]]] = [{} for _ in images]
    for g in sorted(routed):
        found = detect_all(stage2[g], [images[k] for k in routed[g]])
        for k, dets in zip(routed[g], found):
            out[k][g] = dets
    return out


def route_v1(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    taxonomy: ClassTaxonomy,
    config: RoutingConfig,
) -> CascadeOutput:
    """Per-image cascade routing.

    Every image is inferred once by stage 1; each general class with a
    detection at confidence >= tau sends the unchanged image through
    that class's fine-grained detector exactly once. Final detections
    are the union over invoked detectors (no cross-detector
    suppression). Deterministic given seeds.
    """
    if config.mode != "v1":
        raise ValidationError(f"route_v1 called with mode {config.mode!r}")
    return _route(dataset, stage1, stage2, taxonomy, config.tau, ())


def route_v2(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    taxonomy: ClassTaxonomy,
    config: RoutingConfig,
) -> CascadeOutput:
    """Per-sequence cascade routing.

    Stage 1 runs on every image; any general class triggered anywhere in
    a sequence invokes that fine-grained detector on every image of the
    sequence, recovering objects stage 1 missed on individual frames.
    Images outside every sequence are treated as singleton sequences.
    Triggering is evaluated over the whole sequence before any stage-2
    run (two passes, not streaming).
    """
    if config.mode != "v2":
        raise ValidationError(f"route_v2 called with mode {config.mode!r}")
    if dataset.sequences is None:
        raise ValidationError("route_v2 requires dataset.sequences")
    return _route(dataset, stage1, stage2, taxonomy, config.tau, dataset.sequences)


def _route(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    taxonomy: ClassTaxonomy,
    tau: float,
    sequences: Sequence[Sequence[str]],
) -> CascadeOutput:
    """Stage 1 over every image, then each image's invoked stage-2
    detectors: the union of the triggered sets over the image's sequence,
    or its own triggered set if it is in none of ``sequences``."""
    _check_stage2_coverage(stage2, taxonomy)
    images = dataset.images
    s1 = detect_all(stage1, images)
    triggered = [_triggered(dets, tau, taxonomy, img.id) for dets, img in zip(s1, images)]
    invoked = list(triggered)
    position = {img.id: k for k, img in enumerate(images)}
    for seq in sequences:
        members = [position[i] for i in seq]
        union = tuple(sorted(set().union(*(triggered[k] for k in members))))
        for k in members:
            invoked[k] = union
    s2 = _stage2(stage2, images, invoked)
    traces = tuple(
        ImageTrace(img.id, dets, trig, inv, found)
        for img, dets, trig, inv, found in zip(images, s1, triggered, invoked, s2)
    )
    detections = tuple(tuple(d for g in t.invoked for d in t.stage2[g]) for t in traces)
    trace = RoutingTrace(
        images=traces,
        stage1_inferences=len(traces),
        stage2_inferences=sum(len(t.invoked) for t in traces),
    )
    return CascadeOutput(detections=detections, trace=trace)


def compare_tree_vs_flat(trace: RoutingTrace, n_fine_networks: int) -> dict:
    """Inference counts of the cascade vs running every fine detector flat.

    tree = stage-1 + stage-2 inferences; flat = every image through
    every fine-grained detector with no routing.
    """
    if n_fine_networks < 1:
        raise ValidationError("n_fine_networks must be >= 1")
    tree = trace.stage1_inferences + trace.stage2_inferences
    flat = trace.stage1_inferences * n_fine_networks
    ratio = flat / tree if tree > 0 else 0.0
    return {"tree_inferences": tree, "flat_inferences": flat, "ratio": ratio}
