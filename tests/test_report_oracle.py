"""A whole run against its definition: the report ``modcascade run``
writes equals ``oracles.reference_report``, built image by image with
the scalar detector and the run evaluation oracle, every float compared
exactly; and the router's columns equal ``oracles.reference_routing``."""

import json

from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from modcascade import (
    ClassTaxonomy,
    ConfidenceLaw,
    DetectorHandle,
    DetectorProfile,
    make_dataset,
    route_v1,
    route_v2,
    save_dataset,
)
from modcascade.cli import main
from modcascade.core import AnnotatedImage, BoundingBox, GroundTruthObject

from oracles import reference_report, reference_routing, role_seed

TAXONOMY = ClassTaxonomy({"dog": ("pekinese", "spaniel"), "boat": ("kayak", "canoe")})
FINE = TAXONOMY.fine_labels
GENERALS = TAXONOMY.generals


def trace_columns(trace):
    """The router's per-image columns, in dataset order."""
    return [list(column) for column in (trace.stage1, trace.triggered, trace.invoked, trace.stage2)]


@st.composite
def profiles(draw, label_space, correct_for=None):
    """A detector profile over ``label_space``: each fine label's row
    emits up to two labels at 0, 0.2 or 0.5 (an empty or all-zero row
    always misses), or one label always, or is absent (the class is
    invisible); a confidence law that may be exact (spread 0) or have a
    Beta shape <= 1."""
    row = st.one_of(
        st.dictionaries(st.sampled_from(label_space), st.sampled_from([0.0, 0.2, 0.5]),
                        max_size=2),
        st.dictionaries(st.sampled_from(label_space), st.just(1.0), min_size=1, max_size=1),
    )
    rows = draw(st.lists(st.one_of(st.none(), row), min_size=len(FINE), max_size=len(FINE)))
    law = ConfidenceLaw(
        mean_correct=draw(st.sampled_from([0.5, 0.9, 1.0])),
        mean_wrong=draw(st.sampled_from([0.0, 0.3, 0.5])),
        spread=draw(st.sampled_from([0.0, 0.08, 0.4])),
    )
    return DetectorProfile(
        label_space=label_space,
        confusion={f: r for f, r in zip(FINE, rows) if r is not None},
        negative_fp_rate=draw(st.sampled_from([0.0, 0.5, 1.0])),
        loc_noise_sigma=draw(st.sampled_from([0.0, 0.5, 3.0])),
        confidence_law=law,
        correct_for=correct_for,
    )


@st.composite
def images(draw):
    """One to eight images of integer or half-integer size, each with up
    to four objects on an integer grid."""
    out = []
    for k in range(draw(st.integers(1, 8))):
        size = draw(st.integers(4, 10)) + draw(st.sampled_from([0, 0.5]))
        objects = []
        for _ in range(draw(st.integers(0, 4))):
            w, h = draw(st.integers(1, 4)), draw(st.integers(1, 4))
            x, y = draw(st.integers(0, int(size) - w)), draw(st.integers(0, int(size) - h))
            objects.append(GroundTruthObject(BoundingBox(x, y, w, h), draw(st.sampled_from(FINE))))
        out.append(AnnotatedImage(f"i{k}", size, size, tuple(objects)))
    return out


@st.composite
def runs(draw):
    """Everything a run is made of: images, sequences that leave some
    images out (each then its own sequence in v2), the four kinds of
    profile, tau, the routing mode, the IoU threshold and the seed."""
    imgs = draw(images())
    groups = draw(st.lists(st.sampled_from([None, 0, 1, 2]), min_size=len(imgs),
                           max_size=len(imgs)))
    sequences = [[img.id for img, g in zip(imgs, groups) if g == s] for s in (0, 1, 2)]
    return {
        "images": imgs,
        "sequences": [seq for seq in sequences if seq],
        "baseline": draw(profiles(FINE)),
        "stage1": draw(profiles(GENERALS, {f: TAXONOMY.general_of(f) for f in FINE})),
        "stage2": {g: draw(profiles(TAXONOMY.fine_of[g])) for g in GENERALS},
        "tau": draw(st.sampled_from([0.0, 0.5, 0.9, 1.0])),
        "mode": draw(st.sampled_from(["v1", "v2"])),
        "iou_threshold": draw(st.sampled_from([0.25, 0.5, 1.0])),
        "seed": draw(st.integers(0, 2**63)),
    }


def _exact(label_space, confusion, mean=1.0, spread=0.0, **kw):
    return DetectorProfile(label_space, confusion, loc_noise_sigma=0.0,
                           confidence_law=ConfidenceLaw(mean, mean, spread), **kw)


def _box(x):
    return BoundingBox(x, x, 3, 3)


# integer sizes; tau 1 met by exact confidences of 1 and IoU threshold 1
# by noiseless boxes; "dog" routed before "boat", then an image with
# both; a v2 sequence whose last image recovers its first one's miss;
# unsequenced images; a row that always misses ("canoe") and a Beta law
# with both shapes below 1 on the baseline
EXAMPLE = {
    "images": [
        AnnotatedImage("i0", 10, 10, (GroundTruthObject(_box(4), "spaniel"),)),
        AnnotatedImage("i1", 10, 10, (GroundTruthObject(_box(1), "pekinese"),)),
        AnnotatedImage("i2", 10, 10, (GroundTruthObject(_box(0), "spaniel"),
                                      GroundTruthObject(_box(5), "kayak"))),
        AnnotatedImage("i3", 8, 8, (GroundTruthObject(_box(2), "canoe"),)),
        AnnotatedImage("i4", 9, 9, ()),
    ],
    "sequences": [["i1", "i2"]],
    "baseline": DetectorProfile(FINE, {f: {f: 0.5, "kayak": 0.5} for f in FINE},
                                negative_fp_rate=1.0,
                                confidence_law=ConfidenceLaw(0.5, 0.5, 0.4)),
    "stage1": _exact(GENERALS, {"spaniel": {"dog": 1.0}, "kayak": {"boat": 1.0},
                                "pekinese": {}, "canoe": {}},
                     correct_for={f: TAXONOMY.general_of(f) for f in FINE}),
    "stage2": {g: _exact(TAXONOMY.fine_of[g], {f: {f: 1.0} for f in TAXONOMY.fine_of[g]})
               for g in GENERALS},
    "tau": 1.0,
    "mode": "v2",
    "iou_threshold": 1.0,
    "seed": 7,
}


# no shrink phase: shrinking a whole-run draw took minutes before a
# failure was reported, while the first failing draw shows in about a second
@settings(max_examples=40, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
@given(case=runs())
@example(case=EXAMPLE)
@example(case={**EXAMPLE, "mode": "v1", "tau": 0.0, "iou_threshold": 0.25, "sequences": []})
def test_run_writes_the_reference_report(case, tmp_path_factory):
    dataset = make_dataset(TAXONOMY, case["images"], case["sequences"])
    profiles = {"baseline": case["baseline"], "stage1": case["stage1"], "stage2": case["stage2"]}
    config = {
        "dataset": "dataset.json",
        "profiles": {"baseline": case["baseline"].to_json(), "stage1": case["stage1"].to_json(),
                     "stage2": {g: p.to_json() for g, p in case["stage2"].items()}},
        "routing": {"tau": case["tau"], "mode": case["mode"]},
        "eval": {"iou_threshold": case["iou_threshold"]},
        "seed": case["seed"],
    }
    tmp = tmp_path_factory.mktemp("run")
    save_dataset(dataset, tmp / "dataset.json")
    (tmp / "run.json").write_text(json.dumps(config))
    assert main(["run", "--config", str(tmp / "run.json"), "--out", str(tmp)]) == 0
    report = json.loads((tmp / "report.json").read_bytes())
    assert report == reference_report(dataset, **profiles, tau=case["tau"], mode=case["mode"],
                                      iou_threshold=case["iou_threshold"], seed=case["seed"])

    # the router itself, on the dataset built through the API
    seed = case["seed"]
    stage1 = DetectorHandle(case["stage1"], role_seed(seed, "stage1"))
    stage2 = {g: DetectorHandle(p, role_seed(seed, f"stage2|{g}"))
              for g, p in case["stage2"].items()}
    route = route_v1 if case["mode"] == "v1" else route_v2
    trace = route(dataset, stage1, stage2, tau=case["tau"])
    want = reference_routing(dataset, stage1, stage2, case["tau"], case["mode"])
    assert trace_columns(trace) == [list(column) for column in want]
