"""The two-stage cascade: confidence-gated dispatch from a general-class
detector to per-class fine-grained detectors.

v1 routes each image on its own stage-1 detections. v2 routes whole
image sequences: a general class triggered anywhere in a sequence sends
every image of that sequence to that fine-grained detector, trading
extra inferences for recovery from stage-1 misses. Images are passed on
unchanged — no cropping or transformation.

Both modes run stage by stage: stage 1 over every image, then each
general's stage-2 detector over exactly the images routed to it, each
pass one ``detector.detect_all``. Both return a ``RoutingTrace``: four
columns in dataset order, where an image's entries are found by its
position, holding each stage-2 result once. Before any detector runs,
both check that ``tau`` is in [0, 1] and the detectors' label spaces
against ``dataset.taxonomy``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from typing import Iterator, Mapping, Sequence

from .core import AnnotatedImage, ClassTaxonomy, Dataset, Detection, check_int, check_number
from .detector import DetectorHandle, detect_all
from .errors import ValidationError


def check_tau(value) -> float:
    """The one rule of a routing threshold: a finite number in [0, 1]."""
    return check_number(value, "tau", at_least=0, at_most=1)


@dataclass(frozen=True)
class RoutingTrace:
    """The cascade's result: four columns aligned with ``dataset.images``.

    Per image: ``stage1`` holds its stage-1 detections; ``triggered`` the
    general classes its own stage-1 detections put over threshold;
    ``invoked`` the generals whose fine-grained detectors ran on it (equal
    to ``triggered`` in v1, the sequence-level union in v2), in sorted
    order; ``stage2`` each invoked detector's detections, aligned with
    its ``invoked``.
    """

    stage1: tuple[tuple[Detection, ...], ...]
    triggered: tuple[tuple[str, ...], ...]
    invoked: tuple[tuple[str, ...], ...]
    stage2: tuple[tuple[tuple[Detection, ...], ...], ...]

    @property
    def detections(self) -> Iterator[tuple[Detection, ...]]:
        """Each image's final detections, its ``stage2`` concatenated in
        ``invoked`` order, built as they are read."""
        return (tuple(chain.from_iterable(dets)) for dets in self.stage2)

    @property
    def stage1_inferences(self) -> int:
        return len(self.stage1)

    @property
    def stage2_inferences(self) -> int:
        return sum(map(len, self.invoked))


def _stage2(
    stage2: Mapping[str, DetectorHandle],
    images: Sequence[AnnotatedImage],
    invoked: Sequence[tuple[str, ...]],
) -> list[tuple[tuple[Detection, ...], ...]]:
    """Per image, the detections of each invoked general's detector,
    aligned with that image's ``invoked``.

    Each general's detector runs one pass over exactly the images routed
    to it. Generals run in sorted order, so every image's results follow
    its (sorted) ``invoked`` order.
    """
    routed: dict[str, list[int]] = {}
    for k, generals in enumerate(invoked):
        for g in generals:
            routed.setdefault(g, []).append(k)
    out: list[list[tuple[Detection, ...]]] = [[] for _ in images]
    for g in sorted(routed):
        found = detect_all(stage2[g], [images[k] for k in routed[g]])
        for k, dets in zip(routed[g], found):
            out[k].append(dets)
    return [tuple(dets) for dets in out]


def route_v1(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    tau: float,
) -> RoutingTrace:
    """Per-image cascade routing.

    Every image is inferred once by stage 1; each general class with a
    detection at confidence >= tau sends the unchanged image through
    that class's fine-grained detector exactly once. Final detections
    are the union over invoked detectors (no cross-detector
    suppression). Deterministic given seeds.
    """
    return _route(dataset, stage1, stage2, tau, ())


def route_v2(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    tau: float,
) -> RoutingTrace:
    """Per-sequence cascade routing.

    Stage 1 runs on every image; any general class triggered anywhere in
    a sequence invokes that fine-grained detector on every image of the
    sequence, recovering objects stage 1 missed on individual frames.
    Images outside every sequence are treated as singleton sequences.
    Triggering is evaluated over the whole sequence before any stage-2
    run (two passes, not streaming).
    """
    if dataset.sequences is None:
        raise ValidationError("routing mode 'v2' needs a dataset with 'sequences'")
    return _route(dataset, stage1, stage2, tau, dataset.sequences)


def _check_contract(
    taxonomy: ClassTaxonomy, stage1: DetectorHandle, stage2: Mapping[str, DetectorHandle]
) -> None:
    """The cascade's two levels: stage 1 emits exactly the general labels,
    and each general has one stage-2 detector, which emits exactly its
    fine labels. A detector emits only labels of its own label space."""
    generals = set(taxonomy.generals)
    if set(stage1.profile.label_space) != generals:
        raise ValidationError("stage-1 profile must emit exactly the general labels")
    if set(stage2) != generals:
        differ = sorted(set(stage2) ^ generals, key=str)
        raise ValidationError(
            f"stage-2 profiles must cover exactly the general classes; these differ: {differ}"
        )
    for g, handle in stage2.items():
        if set(handle.profile.label_space) != set(taxonomy.fine_of[g]):
            raise ValidationError(f"stage-2 profile for {g!r} must emit exactly fine_of({g!r})")


def _route(
    dataset: Dataset,
    stage1: DetectorHandle,
    stage2: Mapping[str, DetectorHandle],
    tau: float,
    sequences: Sequence[Sequence[str]],
) -> RoutingTrace:
    """Stage 1 over every image, then each image's invoked stage-2
    detectors: the union of the triggered sets over the image's sequence,
    or its own triggered set if it is in none of ``sequences``."""
    check_tau(tau)
    _check_contract(dataset.taxonomy, stage1, stage2)
    images = dataset.images
    s1 = detect_all(stage1, images)
    # one tuple per distinct set, shared by every image that holds it
    shared: dict[tuple[str, ...], tuple[str, ...]] = {}
    triggered = [
        shared.setdefault(trig, trig)
        for trig in (
            tuple(sorted({d.label for d in dets if d.confidence >= tau})) for dets in s1
        )
    ]
    invoked = list(triggered)
    position = {img.id: k for k, img in enumerate(images)} if sequences else None
    for seq in sequences:
        members = [position[i] for i in seq]
        union = tuple(sorted(set().union(*(triggered[k] for k in members))))
        union = shared.setdefault(union, union)
        for k in members:
            invoked[k] = union
    s2 = _stage2(stage2, images, invoked)
    return RoutingTrace(tuple(s1), tuple(triggered), tuple(invoked), tuple(s2))


def compare_tree_vs_flat(trace: RoutingTrace, n_fine_networks: int) -> dict:
    """Inference counts of the cascade vs running every fine detector flat.

    tree = stage-1 + stage-2 inferences; flat = every image through
    every fine-grained detector with no routing.
    """
    check_int(n_fine_networks, "n_fine_networks", at_least=1)
    tree = trace.stage1_inferences + trace.stage2_inferences
    flat = trace.stage1_inferences * n_fine_networks
    ratio = flat / tree if tree > 0 else 0.0
    return {"tree_inferences": tree, "flat_inferences": flat, "ratio": ratio}
