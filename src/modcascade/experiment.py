"""The baseline-vs-cascade experiment behind ``modcascade run``.

``parse_run_config`` turns a run config document into a validated
``RunConfig``; ``run_experiment`` loads the dataset, simulates the flat
baseline and the routed cascade, evaluates both and returns the report
as a dict for the canonical writer, its per-image trace built lazily.
Every per-image result (the baseline's detections, the cascade's
``RoutingTrace``) is a sequence in dataset order and is paired by
position. Each (run, image) pair is matched and scored once, by
``evaluation.evaluate_run``, FN-aware figures included; no evaluation's
matches outlive it.

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

from .core import ClassTaxonomy, Dataset, Detection, load_dataset, read_name, read_object
from .detector import DetectorHandle, DetectorProfile, detect_all
from .errormodel import modular_advantage
from .errors import ValidationError
from .evaluation import check_iou_threshold, evaluate_run
from .reporting import LazyList
from .router import (
    ImageTrace,
    RoutingConfig,
    RoutingTrace,
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
    # as written, like tau: the report's trace repeats both
    iou_threshold = eval_doc.get("iou_threshold", 0.5)
    check_iou_threshold(iou_threshold, "eval.iou_threshold")
    return RunConfig(
        dataset=base_dir / read_name(config, "dataset"),
        baseline=_profile(profiles, "baseline", "profiles."),
        stage1=_profile(profiles, "stage1", "profiles."),
        stage2={g: _profile(stage2, g, "profiles.stage2.") for g in stage2},
        routing=RoutingConfig(tau=routing.get("tau", 0.5), mode=routing.get("mode", "v1")),
        iou_threshold=iou_threshold,
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
        "stage2": {g: [_det_json(d) for d in ds] for g, ds in zip(t.invoked, t.stage2)},
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
    trace = route(dataset, stage1_handle, stage2_handles, taxonomy, routing)

    report = _evaluate(dataset, baseline_dets, trace, iou_threshold)
    report["tree_vs_flat"] = compare_tree_vs_flat(trace, n_fine_networks=len(stage2_handles))
    report["trace"] = {
        "mode": routing.mode,
        "tau": routing.tau,
        "iou_threshold": iou_threshold,
        "stage1_inferences": trace.stage1_inferences,
        "stage2_inferences": trace.stage2_inferences,
        # built image by image while the report is written
        "images": LazyList(list(zip(baseline_dets, trace.images, strict=True)), _image_json),
    }
    return report


def _evaluate(
    dataset: Dataset,
    baseline_dets: Sequence[Sequence[Detection]],
    trace: RoutingTrace,
    iou_threshold: float,
) -> dict:
    """The report's "baseline", "modular" and "advantage" blocks. Each
    evaluation is reduced to the figures used as soon as it is scored."""
    taxonomy = dataset.taxonomy
    traces = trace.images
    baseline_json = evaluate_run(
        dataset.images, baseline_dets, taxonomy, iou_threshold=iou_threshold
    ).to_json()
    baseline_json["stage1_inferences"] = len(dataset.images)
    baseline_json["stage2_inferences"] = 0
    stage1_error = evaluate_run(
        dataset.images,
        [t.stage1 for t in traces],
        taxonomy,
        level="general",
        iou_threshold=iou_threshold,
    ).classification_error
    modular_json = evaluate_run(
        dataset.images,
        (t.detections for t in traces),
        taxonomy,
        iou_threshold=iou_threshold,
        invoked=[t.invoked for t in traces],
    ).to_json()
    modular_json["stage1_inferences"] = trace.stage1_inferences
    modular_json["stage2_inferences"] = trace.stage2_inferences

    a = 1.0 - baseline_json["classification_error"]
    acc_s1 = 1.0 - stage1_error
    acc_mod = 1.0 - modular_json["classification_error"]
    delta1 = acc_s1 - a
    # composite accuracy factors through the stages: acc_mod =
    # (a+delta1)(a+delta2); the measured ratio can stray above 1 on
    # small runs (sampling noise, v2 recovery), so cap the factor
    s2_factor = min(acc_mod / acc_s1, 1.0) if acc_s1 > 0 else 0.0
    delta2 = s2_factor - a
    adv = modular_advantage(a, delta1, delta2)
    return {
        "baseline": baseline_json,
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
