"""The baseline-vs-cascade experiment behind ``modcascade run``.

``parse_run_config`` turns a run config document into a validated
``RunConfig``; ``run_experiment`` loads the dataset, simulates the flat
baseline and the routed cascade, evaluates both and returns the report
as a dict for the canonical writer, its per-image trace built lazily.
Every per-image result (baseline detections, the cascade's detections,
its trace) is a sequence in dataset order and is paired by position.
Each (run, image) pair is matched once: the routed-subset mAP is scored
from the modular evaluation's per-image match results.

Run config schema (unknown keys are ignored)::

    {"dataset": "dataset.json",          # relative to the config's directory
     "profiles": {"baseline": {...}, "stage1": {...},
                  "stage2": {"<general>": {...}, ...}},
     "routing": {"tau": 0.5, "mode": "v1" | "v2"},
     "eval": {"iou_threshold": 0.5},
     "report_filename": "report.json",
     "seed": 0}                           # read by the CLI

``parse_run_config`` raises ``ValidationError`` for every malformed value,
before the dataset is loaded; ``run_experiment`` rejects a v2 run on a
dataset without sequences before any detector runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import ClassTaxonomy, Dataset, Detection, load_dataset
from .core import read_name, read_number, read_object
from .detector import DetectorHandle, DetectorProfile, detect_all
from .errormodel import modular_advantage
from .errors import ValidationError
from .evaluation import evaluate_run, map_with_fn_accounting, score_matches
from .reporting import LazyList
from .router import (
    CascadeOutput,
    ImageTrace,
    RoutingConfig,
    compare_tree_vs_flat,
    route_v1,
    route_v2,
)


@dataclass(frozen=True)
class RunConfig:
    """A validated ``run`` config; ``dataset`` is already resolved."""

    dataset: Path
    baseline: DetectorProfile
    stage1: DetectorProfile
    stage2: Mapping[str, DetectorProfile]
    routing: RoutingConfig
    iou_threshold: float = 0.5
    report_filename: str = "report.json"


def _profile(doc: Mapping, key: str, path: str) -> DetectorProfile:
    profile = read_object(doc, key, path=path)
    try:
        return DetectorProfile.from_json(profile)
    except ValidationError as exc:
        raise ValidationError(f"profile {path}{key}: {exc}") from None


def parse_run_config(config: Mapping, base_dir: Path) -> RunConfig:
    """Validate a run config document; every fault is a ValidationError."""
    profiles = read_object(config, "profiles", {})
    stage2 = read_object(profiles, "stage2", {}, path="profiles.")
    routing = read_object(config, "routing", {})
    eval_doc = read_object(config, "eval", {})
    read_number(eval_doc, "iou_threshold", 0.5, above=0, at_most=1, path="eval.")
    return RunConfig(
        dataset=base_dir / read_name(config, "dataset"),
        baseline=_profile(profiles, "baseline", "profiles."),
        stage1=_profile(profiles, "stage1", "profiles."),
        stage2={g: _profile(stage2, g, "profiles.stage2.") for g in stage2},
        routing=RoutingConfig(tau=routing.get("tau", 0.5), mode=routing.get("mode", "v1")),
        # as written, like tau: the report's trace repeats both
        iou_threshold=eval_doc.get("iou_threshold", 0.5),
        report_filename=read_name(config, "report_filename", "report.json"),
    )


def _role_seed(seed: int, role: str) -> int:
    """Seed of one detector role ("baseline", "stage1", "stage2|<general>")."""
    digest = hashlib.blake2b(f"{seed}|{role}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _check_label_spaces(taxonomy: ClassTaxonomy, config: RunConfig) -> None:
    if set(config.baseline.label_space) != set(taxonomy.fine_labels):
        raise ValidationError("baseline profile must emit exactly the fine labels")
    if set(config.stage1.label_space) != set(taxonomy.generals):
        raise ValidationError("stage-1 profile must emit exactly the general labels")
    if set(config.stage2) != set(taxonomy.generals):
        raise ValidationError("stage-2 profiles must cover exactly the general classes")
    for g, prof in config.stage2.items():
        if set(prof.label_space) != set(taxonomy.fine_of[g]):
            raise ValidationError(
                f"stage-2 profile for {g!r} must emit exactly fine_of({g!r})"
            )


def _det_json(d: Detection) -> dict:
    return {
        "box": [d.box.x, d.box.y, d.box.w, d.box.h],
        "label": d.label,
        "confidence": d.confidence,
    }


def _image_json(entry: tuple[Sequence[Detection], ImageTrace]) -> dict:
    """One image's entry in the report's trace block, from its baseline
    detections and its routing record."""
    baseline, t = entry
    return {
        "id": t.image_id,
        "baseline": [_det_json(d) for d in baseline],
        "stage1": [_det_json(d) for d in t.stage1],
        "triggered": list(t.triggered),
        "invoked": list(t.invoked),
        "stage2": {g: [_det_json(d) for d in ds] for g, ds in t.stage2.items()},
    }


def run_experiment(config: RunConfig, seed: int) -> dict:
    """Execute a full baseline-vs-cascade comparison; returns the report.

    The trace block's ``images`` is a ``reporting.LazyList``: each
    image's detections become dicts only while that entry is encoded.
    """
    dataset = load_dataset(config.dataset)
    taxonomy = dataset.taxonomy
    _check_label_spaces(taxonomy, config)
    routing = config.routing
    if routing.mode == "v2" and dataset.sequences is None:
        raise ValidationError("routing mode 'v2' needs a dataset with 'sequences'")
    iou_threshold = config.iou_threshold

    baseline_handle = DetectorHandle.simulated(config.baseline, _role_seed(seed, "baseline"))
    stage1_handle = DetectorHandle.simulated(config.stage1, _role_seed(seed, "stage1"))
    stage2_handles = {
        g: DetectorHandle.simulated(p, _role_seed(seed, f"stage2|{g}"))
        for g, p in config.stage2.items()
    }

    baseline_dets = detect_all(baseline_handle, dataset.images)
    route = route_v1 if routing.mode == "v1" else route_v2
    cascade = route(dataset, stage1_handle, stage2_handles, taxonomy, routing)

    # the evaluation's per-image matches are freed before the trace
    # block, the largest part of the report, is built
    report = _evaluate(dataset, baseline_dets, cascade, iou_threshold)
    report["tree_vs_flat"] = compare_tree_vs_flat(
        cascade.trace, n_fine_networks=len(stage2_handles)
    )
    report["trace"] = {
        "mode": routing.mode,
        "tau": routing.tau,
        "iou_threshold": iou_threshold,
        "stage1_inferences": cascade.trace.stage1_inferences,
        "stage2_inferences": cascade.trace.stage2_inferences,
        # built image by image while the report is written
        "images": LazyList(
            list(zip(baseline_dets, cascade.trace.images, strict=True)), _image_json
        ),
    }
    return report


def _evaluate(
    dataset: Dataset,
    baseline_dets: Sequence[Sequence[Detection]],
    cascade: CascadeOutput,
    iou_threshold: float,
) -> dict:
    """The report's "baseline", "modular" and "advantage" blocks."""
    taxonomy = dataset.taxonomy
    traces = cascade.trace.images
    baseline_report = evaluate_run(
        dataset.images,
        baseline_dets,
        taxonomy,
        iou_threshold=iou_threshold,
        stage1_inferences=len(dataset.images),
    )
    modular_report = evaluate_run(
        dataset.images,
        cascade.detections,
        taxonomy,
        iou_threshold=iou_threshold,
        invoked=[t.invoked for t in traces],
        stage1_inferences=cascade.trace.stage1_inferences,
        stage2_inferences=cascade.trace.stage2_inferences,
    )
    stage1_report = evaluate_run(
        dataset.images,
        [t.stage1 for t in traces],
        taxonomy,
        level="general",
        iou_threshold=iou_threshold,
        stage1_inferences=cascade.trace.stage1_inferences,
    )

    # FN-aware total mAP: stage-2 mAP over the positive images that are
    # not FN images (each reached every stage-2 detector it needed),
    # scaled down by the FN images. Both come from the modular pass's
    # per-image FN flags; the matches are its own, in dataset order.
    routed_matches = [
        match
        for img, match, fn in zip(
            dataset.images, modular_report.matches, modular_report.fn_image_flags
        )
        if img.objects and not fn
    ]
    fn_images = modular_report.fn_image_count
    if routed_matches:
        stage2_routed_map = score_matches(routed_matches, taxonomy).map
    else:
        stage2_routed_map = 0.0
    if routed_matches or fn_images:
        map_fn_adjusted = map_with_fn_accounting(
            stage2_routed_map, len(routed_matches), fn_images
        )
    else:
        map_fn_adjusted = modular_report.map

    a = 1.0 - baseline_report.classification_error
    acc_s1 = 1.0 - stage1_report.classification_error
    acc_mod = 1.0 - modular_report.classification_error
    delta1 = acc_s1 - a
    # composite accuracy factors through the stages: acc_mod =
    # (a+delta1)(a+delta2); the measured ratio can stray above 1 on
    # small runs (sampling noise, v2 recovery), so cap the factor
    s2_factor = min(acc_mod / acc_s1, 1.0) if acc_s1 > 0 else 0.0
    delta2 = s2_factor - a
    adv = modular_advantage(a, delta1, delta2)

    modular_json = modular_report.to_json()
    modular_json["map_stage2_routed"] = stage2_routed_map
    modular_json["map_fn_adjusted"] = map_fn_adjusted
    modular_json["routed_positive_images"] = len(routed_matches)
    return {
        "baseline": baseline_report.to_json(),
        "modular": modular_json,
        "advantage": {
            "a": a,
            "delta1": delta1,
            "delta2": delta2,
            "lhs": adv.lhs,
            "rhs": adv.rhs,
            "advantage": adv.advantage,
        },
    }
