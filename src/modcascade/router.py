"""The two-stage cascade: confidence-gated dispatch from a general-class
detector to per-class fine-grained detectors.

v1 routes each image on its own stage-1 detections. v2 routes whole
image sequences: a general class triggered anywhere in a sequence sends
every image of that sequence to that fine-grained detector, trading
extra inferences for recovery from stage-1 misses. Images are passed on
unchanged — no cropping or transformation.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

from .core import AnnotatedImage, ClassTaxonomy, Dataset, Detection, is_finite_real
from .detector import DetectorHandle, detect
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


@dataclass(frozen=True)
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

    def invoked_by_image(self) -> dict[str, tuple[str, ...]]:
        return {t.image_id: t.invoked for t in self.images}

    def stage1_by_image(self) -> dict[str, tuple[Detection, ...]]:
        return {t.image_id: t.stage1 for t in self.images}


@dataclass(frozen=True)
class CascadeOutput:
    """Final fine-grained detections per image, plus the full trace."""

    detections: Mapping[str, tuple[Detection, ...]]
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


def _map_images(fn, images, workers: int):
    if workers <= 1:
        return [fn(img) for img in images]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, images))


def route_v1(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    taxonomy: ClassTaxonomy,
    config: RoutingConfig,
    workers: int = 1,
) -> CascadeOutput:
    """Per-image cascade routing.

    Every image is inferred once by stage 1; each general class with a
    detection at confidence >= tau sends the unchanged image through
    that class's fine-grained detector exactly once. Final detections
    are the union over invoked detectors (no cross-detector
    suppression). Deterministic given seeds, independent of ``workers``.
    """
    if config.mode != "v1":
        raise ValidationError(f"route_v1 called with mode {config.mode!r}")
    _check_stage2_coverage(stage2, taxonomy)

    def process(img: AnnotatedImage):
        s1 = tuple(detect(stage1, img))
        triggered = _triggered(s1, config.tau, taxonomy, img.id)
        s2 = {g: tuple(detect(stage2[g], img)) for g in triggered}
        return ImageTrace(img.id, s1, triggered, triggered, s2)

    traces = _map_images(process, dataset.images, workers)
    return _assemble(traces)


def route_v2(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    taxonomy: ClassTaxonomy,
    config: RoutingConfig,
    workers: int = 1,
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
    _check_stage2_coverage(stage2, taxonomy)

    covered = {i for seq in dataset.sequences for i in seq}
    sequences = list(dataset.sequences) + [
        (img.id,) for img in dataset.images if img.id not in covered
    ]

    def process(seq):
        imgs = [dataset.image_by_id(i) for i in seq]
        s1 = [tuple(detect(stage1, img)) for img in imgs]
        per_image_triggered = [
            _triggered(dets, config.tau, taxonomy, img.id)
            for dets, img in zip(s1, imgs)
        ]
        invoked = tuple(sorted(set().union(*per_image_triggered) if per_image_triggered else ()))
        traces = []
        for img, dets, trig in zip(imgs, s1, per_image_triggered):
            s2 = {g: tuple(detect(stage2[g], img)) for g in invoked}
            traces.append(ImageTrace(img.id, dets, trig, invoked, s2))
        return traces

    per_seq = _map_images(process, sequences, workers)
    by_id = {t.image_id: t for traces in per_seq for t in traces}
    ordered = tuple(by_id[img.id] for img in dataset.images)
    return _assemble(ordered)


def _assemble(traces) -> CascadeOutput:
    stage2_count = 0
    detections = {}
    for t in traces:
        stage2_count += len(t.invoked)
        final: list[Detection] = []
        for g in t.invoked:
            final.extend(t.stage2[g])
        detections[t.image_id] = tuple(final)
    trace = RoutingTrace(
        images=tuple(traces),
        stage1_inferences=len(traces),
        stage2_inferences=stage2_count,
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
