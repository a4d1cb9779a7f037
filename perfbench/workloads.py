"""Benchmark workloads: seeded inputs written through modcascade's public
API, the CLI arguments that run them, and the checks on their outputs.

Every input is a pure function of (workload, seed, scale). Inputs are
written before any timed region; the program under test receives only
the files.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# README taxonomy: five generals with two fine classes each.
GENERALS = {
    "dog": ["pekinese", "spaniel"],
    "boat": ["kayak", "canoe"],
    "bird": ["swan", "duck"],
    "bike": ["road_bike", "mountain_bike"],
    "planet": ["mars", "saturn"],
}

# Seed at which the output digests below were recorded (scale 1).
DEFAULT_SEED = 1

# sha256 of every output file at DEFAULT_SEED and scale 1. Keeping these
# bytes unchanged is the correctness gate for every speed-up.
RECORDED_SHA256 = {
    "cascade_v2_sequences": {
        "report.json": "55dc7c6f5ab8bf50ae0fc76b4d251c739dda3fa56982f69da6a3db34e9c036c9",
    },
    "cascade_v1_crowded": {
        "report.json": "d705ed50aad460e4098cbaeb571ac98f7d8705b9199d86bacb27055336a4f866",
    },
    "errormodel_wide": {
        "curves.csv": "2ef2e63db6ef19fdd7501b34bfbe98c9c97bbd03a61ad4504cc436c35ac55979",
        "summary.json": "e79419ee592d8533a3202d7fec2c64e02e0acc2076e2bd9001dd4db1552aa3be",
    },
}


def _taxonomy():
    from modcascade import ClassTaxonomy

    return ClassTaxonomy(GENERALS)


def _run_config(dataset: str, mode: str, workers: int, seed: int) -> dict:
    """README detector profiles: baseline 12% error, stage 1 2.25% error
    and 2% miss, stage 2 2.3% error."""
    from modcascade.profiles import flat_profile, stage1_profile, stage2_profiles

    taxonomy = _taxonomy()
    stage2 = stage2_profiles(taxonomy, error_rate=0.023, loc_noise_sigma=1.0)
    return {
        "dataset": dataset,
        "profiles": {
            "baseline": flat_profile(taxonomy, error_rate=0.12, loc_noise_sigma=1.0).to_json(),
            "stage1": stage1_profile(
                taxonomy, error_rate=0.0225, miss_rate=0.02,
                loc_noise_sigma=1.5, negative_fp_rate=0.02,
            ).to_json(),
            "stage2": {g: p.to_json() for g, p in stage2.items()},
        },
        "routing": {"tau": 0.5, "mode": mode},
        "eval": {"iou_threshold": 0.5},
        "workers": workers,
        "seed": seed,
    }


def _write_json(obj, path: Path) -> None:
    path.write_text(json.dumps(obj), encoding="utf-8")


@dataclass
class Prepared:
    """One workload's generated inputs."""

    argv: list[str]          # modcascade CLI arguments, without --out
    outputs: tuple[str, ...]  # files each invocation must write
    items: int               # input size that items_per_s divides
    loader: str              # Python statement timed as the input loader
    reference_argv: list[str] | None = None  # workers-1 run of the same inputs
    dataset: Path | None = None


class Workload:
    name = ""
    why = ""

    def prepare(self, work: Path, seed: int, scale: float, env: dict, workers: int) -> Prepared:
        raise NotImplementedError

    def check(self, prep: Prepared, out: Path) -> list[str]:
        """Problems with one invocation's outputs beyond their digests."""
        return []


class CascadeWorkload(Workload):
    def check(self, prep, out):
        report = json.loads((out / "report.json").read_text())
        counters = router_counters(report, json.loads(prep.dataset.read_text()))
        if counters["router.fn_images"] != report["modular"]["fn_image_count"]:
            return [
                f"{counters['router.fn_images']} FN images in the trace, "
                f"{report['modular']['fn_image_count']} in the report"
            ]
        return []


class CascadeV2Sequences(CascadeWorkload):
    name = "cascade_v2_sequences"
    why = (
        "single-object images in sequences of 5, routed per sequence (v2): "
        "per-call overhead dominates and v2 spends extra stage-2 inferences"
    )

    def prepare(self, work, seed, scale, env, workers):
        n = max(2, round(250 * scale))
        synth = {
            "taxonomy": {"generals": GENERALS, "negative_label": "negative"},
            "images_per_fine": n,
            "negatives": n,
            "seq_len": 5,
            "seed": seed,
        }
        _write_json(synth, work / "synth.json")
        subprocess.run(
            [sys.executable, "-m", "modcascade.cli", "synth",
             "--config", str(work / "synth.json"), "--out", str(work)],
            env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        _write_json(_run_config("dataset.json", "v2", 1, seed), work / "run.json")
        return Prepared(
            argv=["run", "--config", str(work / "run.json")],
            outputs=("report.json",),
            items=11 * n,
            loader=f"modcascade.load_dataset({str(work / 'dataset.json')!r})",
            dataset=work / "dataset.json",
        )


class CascadeV1Crowded(CascadeWorkload):
    name = "cascade_v1_crowded"
    why = (
        "about 8 objects of mixed generals per image, routed per image (v1) on "
        "a thread pool: per-object work dominates, with large IoU matrices and AP lists"
    )

    def prepare(self, work, seed, scale, env, workers):
        from modcascade import AnnotatedImage, BoundingBox, GroundTruthObject
        from modcascade import make_dataset, save_dataset

        taxonomy = _taxonomy()
        fines = taxonomy.fine_labels
        rng = np.random.default_rng(seed)
        size = 800.0
        images = []
        for k in range(max(2, round(500 * scale))):
            objects = []
            for _ in range(int(rng.integers(6, 11))):
                w, h = rng.uniform(40.0, 200.0, 2)
                x = rng.uniform(0.0, size - w)
                y = rng.uniform(0.0, size - h)
                label = fines[int(rng.integers(len(fines)))]
                objects.append(GroundTruthObject(BoundingBox(x, y, w, h), label))
            images.append(AnnotatedImage(f"img_{k:05d}", size, size, tuple(objects)))
        save_dataset(make_dataset(taxonomy, images), work / "dataset.json")
        _write_json(_run_config("dataset.json", "v1", workers, seed), work / "run.json")
        _write_json(_run_config("dataset.json", "v1", 1, seed), work / "run_ref.json")
        return Prepared(
            argv=["run", "--config", str(work / "run.json")],
            outputs=("report.json",),
            items=len(images),
            loader=f"modcascade.load_dataset({str(work / 'dataset.json')!r})",
            reference_argv=["run", "--config", str(work / "run_ref.json")],
            dataset=work / "dataset.json",
        )


class ErrormodelWide(Workload):
    name = "errormodel_wide"
    why = (
        "analytic error model on a 10-class model with a wide feature axis: "
        "the only workload of the errormodel layer, bypassing every cascade layer"
    )

    def prepare(self, work, seed, scale, env, workers):
        rng = np.random.default_rng(seed)
        n_classes = 10
        n_features = max(8, round(25_000 * scale))
        classes = [f"c{i}" for i in range(n_classes)]
        priors = rng.dirichlet(np.ones(n_classes))
        priors[-1] = 1.0 - float(priors[:-1].sum())
        conditionals, weights = {}, {}
        for c in classes:
            v = rng.random(n_features) + 0.01
            conditionals[c] = (v / v.sum()).tolist()
            weights[c] = rng.random(n_features).tolist()
        model = {
            "priors": dict(zip(classes, priors.tolist())),
            "conditionals": conditionals,
            "weights": weights,
            "budget": {"L": 120.0, "T": 60.0, "U": 40.0, "n": n_classes},
            "capacity": {"r": 1e6, "a_filters": 64.0, "d": 3.0, "h": 64.0, "q": 8.0, "supK": 500.0},
        }
        _write_json(model, work / "model.json")
        _write_json({"model": "model.json", "pair": ["c0", "c1"]}, work / "errormodel.json")
        return Prepared(
            argv=["errormodel", "--config", str(work / "errormodel.json")],
            outputs=("curves.csv", "summary.json"),
            items=n_classes * n_features,
            loader=(
                "import json, modcascade.errormodel\n"
                f"with open({str(work / 'model.json')!r}) as fh:\n"
                "    modcascade.errormodel.model_file_to_parts(json.load(fh))"
            ),
        )

    def check(self, prep, out):
        summary = json.loads((out / "summary.json").read_text())
        with open(out / "curves.csv") as fh:
            next(fh)
            mins = [float(line.rsplit(",", 1)[1]) for line in fh]
        if summary["bayes_error"] != math.fsum(mins):
            return [f"bayes_error {summary['bayes_error']!r} != fsum(min_term) {math.fsum(mins)!r}"]
        return []


WORKLOADS = {w.name: w for w in (CascadeV2Sequences(), CascadeV1Crowded(), ErrormodelWide())}


def router_counters(report: dict, dataset: dict) -> dict[str, float]:
    """Routing counters derived from a report's trace block.

    An invocation is useful when its general has a ground-truth object in
    the image. A v2-recovered image was sent to a general's detector that
    its own stage-1 detections did not trigger, and holds an object of
    that general. An FN image holds an object whose general was never
    invoked.
    """
    general_of = {f: g for g, fs in dataset["taxonomy"]["generals"].items() for f in fs}
    gt_generals = {
        img["id"]: {general_of[o["label"]] for o in img["objects"]} for img in dataset["images"]
    }
    useful = recovered = fn = 0
    for t in report["trace"]["images"]:
        present = gt_generals[t["id"]]
        invoked = set(t["invoked"])
        useful += len(invoked & present)
        if invoked > set(t["triggered"]) and (invoked - set(t["triggered"])) & present:
            recovered += 1
        if present - invoked:
            fn += 1
    stage2 = report["trace"]["stage2_inferences"]
    return {
        "router.stage1_inferences": report["trace"]["stage1_inferences"],
        "router.stage2_inferences": stage2,
        "router.stage2_useful_ratio": useful / stage2 if stage2 else 0.0,
        "router.v2_recovered_images": recovered,
        "router.fn_images": fn,
    }
