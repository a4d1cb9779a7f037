"""The baseline-vs-cascade experiment behind ``modcascade run``.

``parse_run_config`` turns a run config document into a validated
``RunConfig``, which holds every setting of the run, its seed included;
``run_experiment`` loads the dataset, simulates the flat baseline and
the routed cascade, evaluates both and returns the report as a dict for
the canonical writer, its per-image trace built lazily.
Every per-image result (the baseline's detections, each column of the
cascade's ``RoutingTrace``) is a sequence in dataset order, and an
image's entries are found by its position ``k``. Each (run, image) pair
is matched and scored once, by ``evaluation.evaluate_run``, FN-aware
figures included; no evaluation's matches outlive it.

Run config schema (unknown keys are ignored)::

    {"dataset": "dataset.json",          # relative to the config's directory
     "profiles": {"baseline": {...}, "stage1": {...},
                  "stage2": {"<general>": {...}, ...}},
     "routing": {"tau": 0.5, "mode": "v1" | "v2"},
     "eval": {"iou_threshold": 0.5},
     "report_filename": "report.json",
     "seed": 0}

``parse_run_config`` raises ``ValidationError`` for every malformed value,
before the dataset is loaded. ``run_experiment`` checks the baseline's
label space against the dataset's taxonomy, then routes: the router
checks the cascade's label spaces, and that a v2 run has sequences,
before any detector runs. The baseline pass follows the routing.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

from .core import Dataset, Detection, load_dataset, read_int, read_name, read_object
from .detector import DetectorHandle, DetectorProfile, detect_all
from .errormodel import modular_advantage
from .errors import ValidationError
from .evaluation import check_iou_threshold, evaluate_run
from .reporting import LazyList
from .router import RoutingTrace, check_tau, compare_tree_vs_flat, route_v1, route_v2


@dataclass(frozen=True)
class RunConfig:
    """A validated ``run`` config, seed included; ``dataset`` is already resolved."""

    dataset: Path
    baseline: DetectorProfile
    stage1: DetectorProfile
    stage2: Mapping[str, DetectorProfile]
    tau: float
    mode: str
    iou_threshold: float
    report_filename: str
    seed: int


def _profile(doc: Mapping, key: str, path: str) -> DetectorProfile:
    profile = read_object(doc, key, path=path)
    try:
        return DetectorProfile.from_json(profile)
    except ValidationError as exc:
        raise ValidationError(f"profile {path}{key}: {exc}") from None


def _routing(routing: Mapping) -> dict:
    """``tau`` and ``mode``, each checked and kept as written."""
    tau, mode = routing.get("tau", 0.5), routing.get("mode", "v1")
    check_tau(tau)
    if mode not in ("v1", "v2"):
        raise ValidationError(f"mode must be 'v1' or 'v2', got {mode!r}")
    return {"tau": tau, "mode": mode}


def parse_run_config(config: Mapping, base_dir: Path) -> RunConfig:
    """Validate a run config document, seed included; every fault is a ValidationError."""
    profiles = read_object(config, "profiles", {})
    stage2 = read_object(profiles, "stage2", {}, path="profiles.")
    routing = read_object(config, "routing", {})
    eval_doc = read_object(config, "eval", {})
    # as written, like tau and mode: the report's trace repeats all three
    iou_threshold = eval_doc.get("iou_threshold", 0.5)
    check_iou_threshold(iou_threshold, "eval.iou_threshold")
    return RunConfig(
        dataset=base_dir / read_name(config, "dataset"),
        baseline=_profile(profiles, "baseline", "profiles."),
        stage1=_profile(profiles, "stage1", "profiles."),
        stage2={g: _profile(stage2, g, "profiles.stage2.") for g in stage2},
        **_routing(routing),
        iou_threshold=iou_threshold,
        report_filename=read_name(config, "report_filename", "report.json"),
        seed=read_int(config, "seed", 0),
    )


def _role_seed(seed: int, role: str) -> int:
    """Seed of one detector role ("baseline", "stage1", "stage2|<general>")."""
    digest = hashlib.blake2b(f"{seed}|{role}".encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def run_experiment(config: RunConfig) -> dict:
    """Execute a full baseline-vs-cascade comparison; returns the report.
    Every detector role's seed is derived from ``config.seed``.

    The trace block's ``images`` is a ``reporting.LazyList``: each
    image's entry is built only while it is encoded.
    """
    dataset = load_dataset(config.dataset)
    if set(config.baseline.label_space) != set(dataset.taxonomy.fine_labels):
        raise ValidationError("baseline profile must emit exactly the fine labels")
    iou_threshold, seed = config.iou_threshold, config.seed

    baseline_handle = DetectorHandle(config.baseline, _role_seed(seed, "baseline"))
    stage1_handle = DetectorHandle(config.stage1, _role_seed(seed, "stage1"))
    stage2_handles = {
        g: DetectorHandle(p, _role_seed(seed, f"stage2|{g}"))
        for g, p in config.stage2.items()
    }

    # the router checks the cascade's label spaces and the v2 sequences
    # before any detector runs, so the baseline pass comes second
    route = route_v1 if config.mode == "v1" else route_v2
    trace = route(dataset, stage1_handle, stage2_handles, config.tau)
    baseline_dets = detect_all(baseline_handle, dataset.images)

    report = _evaluate(dataset, baseline_dets, trace, iou_threshold)
    report["tree_vs_flat"] = compare_tree_vs_flat(trace, n_fine_networks=len(stage2_handles))
    images = dataset.images

    def image_json(k: int) -> dict:
        """Image ``k``'s entry in the report's trace block."""
        invoked = trace.invoked[k]
        return {
            "id": images[k].id,
            "baseline": baseline_dets[k],
            "stage1": trace.stage1[k],
            "triggered": trace.triggered[k],
            "invoked": invoked,
            "stage2": dict(zip(invoked, trace.stage2[k])),
        }

    report["trace"] = {
        "mode": config.mode,
        "tau": config.tau,
        "iou_threshold": iou_threshold,
        "stage1_inferences": trace.stage1_inferences,
        "stage2_inferences": trace.stage2_inferences,
        # built image by image while the report is written
        "images": LazyList(range(len(images)), image_json),
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
    baseline_json = evaluate_run(
        dataset.images, baseline_dets, taxonomy, iou_threshold=iou_threshold
    ).to_json()
    baseline_json["stage1_inferences"] = len(dataset.images)
    baseline_json["stage2_inferences"] = 0
    stage1_error = evaluate_run(
        dataset.images,
        trace.stage1,
        taxonomy,
        level="general",
        iou_threshold=iou_threshold,
    ).classification_error
    modular_json = evaluate_run(
        dataset.images,
        trace.detections,
        taxonomy,
        iou_threshold=iou_threshold,
        invoked=trace.invoked,
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
