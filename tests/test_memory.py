"""Memory per image: the traced peaks of a detector pass and of
``evaluate_run`` grow with the run by a bounded number of bytes per added
image, so a per-image or per-pair object that lives through a whole stage
shows up here, not first at the 110k-image scale."""

import tracemalloc
from unittest import mock

from modcascade import ClassTaxonomy, DetectorHandle, _kernels, evaluate_run
from modcascade.core import AnnotatedImage, BoundingBox, Detection, GroundTruthObject
from modcascade.detector import detect_all
from modcascade.profiles import flat_profile

from conftest import synth_dataset, taxonomy_5x2

TAXONOMY = taxonomy_5x2()
HANDLE = DetectorHandle(flat_profile(TAXONOMY, error_rate=0.12, loc_noise_sigma=1.0), 7)

# traced bytes per added image between 2,200 and 8,800 images. Measured
# with CPython 3.11 and numpy 2.4: 244 for the pass, whose detections stay
# alive, and 273 for the evaluation; with the greedy walk's tolist() over
# the whole run instead of one slice at a time, the evaluation read 357
DETECT_BYTES_PER_IMAGE = 300
EVALUATE_BYTES_PER_IMAGE = 310


def _peaks(per_fine):
    """The image count, and the traced peaks of one detector pass and of
    its evaluation, each above the memory traced when it began."""
    dataset = synth_dataset(TAXONOMY, per_fine=per_fine, negatives=per_fine, seed=7)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        detections = detect_all(HANDLE, dataset.images)
        after_detect, detect_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        evaluate_run(dataset.images, detections, TAXONOMY, iou_threshold=0.5)
        evaluate_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return len(dataset.images), detect_peak - base, evaluate_peak - after_detect


def test_peak_grows_by_a_bounded_amount_per_image():
    # a slice of 64 pairs: the greedy walk spans many slices at both sizes
    with mock.patch.object(_kernels, "_CHUNK", 64):
        _peaks(5)  # one-time allocations happen outside the measured runs
        (n1, detect1, evaluate1), (n2, detect2, evaluate2) = _peaks(200), _peaks(800)
    assert (n1, n2) == (2200, 8800)
    assert (detect2 - detect1) / (n2 - n1) < DETECT_BYTES_PER_IMAGE
    assert (evaluate2 - evaluate1) / (n2 - n1) < EVALUATE_BYTES_PER_IMAGE


def test_evaluation_memory_does_not_grow_with_the_square_of_the_taxonomy():
    # labels are coded over the whole level of the taxonomy: a count of
    # every (true, predicted) code pair would hold 3,000 x 3,000 integers,
    # 72 MB, to score this one image
    taxonomy = ClassTaxonomy({f"g{i}": (f"f{i}a", f"f{i}b") for i in range(1500)})
    box = BoundingBox(0.0, 0.0, 10.0, 10.0)
    image = AnnotatedImage("i", 100.0, 100.0, (GroundTruthObject(box, "f0a"),))
    tracemalloc.start()
    try:
        report = evaluate_run([image], [[Detection(box, "f0b", 0.9)]], taxonomy,
                              invoked=[("g0",)], iou_threshold=0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.confusion == {"f0a": {"f0b": 1}}
    assert peak < 1_000_000
