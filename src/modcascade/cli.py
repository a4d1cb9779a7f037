"""Command-line surface: reproducible synth / run / errormodel experiments.

One experiment = one JSON config = one report; no implicit state. All
emitted files go through the canonical JSON writer, so identical config
and seed give byte-identical outputs.

Exit codes: 0 success, 2 config or validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .core import (
    AnnotatedImage,
    BoundingBox,
    ClassTaxonomy,
    GroundTruthObject,
    dataset_to_json,
    is_finite_real,
    make_dataset,
    read_json,
)
from .errormodel import (
    FeatureBudget,
    FeatureClassModel,
    bayes_error,
    feature_count,
    model_file_to_parts,
    over_capacity,
    pdf_curves,
)
from .errors import UnknownLabelError, ValidationError
from .experiment import parse_run_config, run_experiment
from .reporting import dump_canonical


def _load_config(path: Path) -> dict:
    config = read_json(path, "config")
    if not isinstance(config, dict):
        raise ValidationError(f"config {path}: expected a JSON object")
    return config


def _config_seed(config: dict) -> int:
    seed = config.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ValidationError(f"seed {seed!r} is not an integer")
    return seed


def _integer(config: Mapping, key: str, default: int | None, minimum: int) -> int | None:
    """An integer field >= ``minimum``; with ``default`` None the field is
    optional and absent or null reads as None."""
    value = config.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int) or value < minimum:
        raise ValidationError(f"{key} {value!r} is not an integer >= {minimum}")
    return value


def _positive(config: Mapping, key: str, default: float) -> float:
    value = config.get(key, default)
    if not (is_finite_real(value) and value > 0):
        raise ValidationError(f"{key} {value!r} is not a finite number > 0")
    return float(value)


def _filename(config: Mapping, key: str, default: str) -> str:
    value = config.get(key, default)
    if not isinstance(value, str) or not value:
        raise ValidationError(f"{key} must be a non-empty string")
    return value


# ---------------------------------------------------------------- synth


@dataclass(frozen=True)
class SynthConfig:
    """A validated ``synth`` config."""

    taxonomy: ClassTaxonomy
    images_per_fine: int
    negatives: int
    width: float
    height: float
    min_box_size: float
    max_box_size: float
    seq_len: int | None
    filename: str


def parse_synth_config(config: Mapping) -> SynthConfig:
    """Validate a synth config document; every fault is a ValidationError."""
    if "taxonomy" not in config:
        raise ValidationError("config needs 'taxonomy'")
    width = _positive(config, "width", 800)
    height = _positive(config, "height", 800)
    return SynthConfig(
        taxonomy=ClassTaxonomy.from_json(config["taxonomy"]),
        images_per_fine=_integer(config, "images_per_fine", 100, 0),
        negatives=_integer(config, "negatives", 0, 0),
        width=width,
        height=height,
        min_box_size=_positive(config, "min_box_size", 80),
        max_box_size=_positive(config, "max_box_size", min(width, height) / 2),
        seq_len=_integer(config, "seq_len", None, 1),
        filename=_filename(config, "filename", "dataset.json"),
    )


def cmd_synth(config: dict, seed: int, out_dir: Path) -> Path:
    """Generate a synthetic annotation file.

    K images per fine class, one centered-at-random object each, plus
    negative images; optional grouping of each class's images into
    sequences of ``seq_len``. Deterministic given the seed.
    """
    synth = parse_synth_config(config)
    width, height = synth.width, synth.height
    lo, hi = synth.min_box_size, synth.max_box_size
    seq_len = synth.seq_len
    rng = np.random.default_rng(seed)

    images = []
    sequences: list[list[str]] = []
    for fine in synth.taxonomy.fine_labels:
        ids = []
        for k in range(synth.images_per_fine):
            w = rng.uniform(lo, hi)
            h = rng.uniform(lo, hi)
            x = rng.uniform(0.0, width - w)
            y = rng.uniform(0.0, height - h)
            image_id = f"{fine}_{k:05d}"
            images.append(
                AnnotatedImage(
                    id=image_id,
                    width=width,
                    height=height,
                    objects=(GroundTruthObject(BoundingBox(x, y, w, h), fine),),
                )
            )
            ids.append(image_id)
        if seq_len:
            for start in range(0, len(ids), seq_len):
                sequences.append(ids[start : start + seq_len])
    for k in range(synth.negatives):
        images.append(AnnotatedImage(id=f"neg_{k:05d}", width=width, height=height))

    dataset = make_dataset(synth.taxonomy, images, sequences if seq_len else None)
    out_path = out_dir / synth.filename
    dump_canonical(dataset_to_json(dataset), out_path)
    return out_path


# ------------------------------------------------------------------ run


def cmd_run(config: dict, seed: int, out_dir: Path, base_dir: Path) -> Path:
    """Run the experiment of ``experiment.py`` and write its report."""
    run_config = parse_run_config(config, base_dir)
    report = run_experiment(run_config, seed)
    out_path = out_dir / run_config.report_filename
    dump_canonical(report, out_path)
    return out_path


# ------------------------------------------------------------ errormodel


@dataclass(frozen=True)
class ErrormodelConfig:
    """A validated ``errormodel`` config, its model file already parsed."""

    model: FeatureClassModel
    budget: FeatureBudget | None
    pair: tuple[str, str]
    curves_filename: str
    summary_filename: str


def parse_errormodel_config(config: Mapping, base_dir: Path) -> ErrormodelConfig:
    """Validate an errormodel config and parse its model document (inline,
    or a file path relative to ``base_dir``); every fault is a ValidationError."""
    model_doc = config.get("model")
    if isinstance(model_doc, str) and model_doc:
        model_doc = read_json(base_dir / model_doc, "model file")
    elif model_doc is None:
        raise ValidationError("config needs 'model': a model file path or a model object")
    if not isinstance(model_doc, Mapping):
        raise ValidationError("the model must be a JSON object")
    model, budget = model_file_to_parts(model_doc)
    pair = config.get("pair")
    if not (
        isinstance(pair, list)
        and len(pair) == 2
        and all(isinstance(c, str) for c in pair)
        and pair[0] != pair[1]
    ):
        raise ValidationError("config needs 'pair': [class0, class1], two distinct class names")
    for c in pair:
        if c not in model.classes:
            raise UnknownLabelError(f"pair names unknown class {c!r}")
    return ErrormodelConfig(
        model=model,
        budget=budget,
        pair=(pair[0], pair[1]),
        curves_filename=_filename(config, "curves_filename", "curves.csv"),
        summary_filename=_filename(config, "summary_filename", "summary.json"),
    )


def cmd_errormodel(config: dict, out_dir: Path, base_dir: Path) -> tuple[Path, Path]:
    em = parse_errormodel_config(config, base_dir)
    model, budget = em.model, em.budget
    c0, c1 = em.pair

    rows = pdf_curves(model, c0, c1)
    curves_path = out_dir / em.curves_filename
    with open(curves_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("feature_index,w_density_c0,w_density_c1,min_term\n")
        for i, w0, w1, mn in rows:
            fh.write(f"{i},{w0:.17g},{w1:.17g},{mn:.17g}\n")

    summary = {
        "bayes_error": bayes_error(model, c0, c1),
        "feature_count": feature_count(budget) if budget is not None else None,
        "over_capacity": over_capacity(budget) if budget is not None else None,
    }
    summary_path = out_dir / em.summary_filename
    dump_canonical(summary, summary_path)
    return curves_path, summary_path


# ----------------------------------------------------------------- main


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modcascade",
        description="Coarse-to-fine detection cascade experiments with simulated detectors.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("synth", "generate a synthetic annotation dataset"),
        ("run", "run baseline vs cascade and write a report"),
        ("errormodel", "evaluate the analytic error model on a model file"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON config")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    # a command frees its objects by reference counting; the cyclic
    # collector, triggered by the allocation count alone, finds nothing
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        config_path = Path(args.config)
        config = _load_config(config_path)
        seed = args.seed if args.seed is not None else _config_seed(config)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        base_dir = config_path.parent
        if args.command == "synth":
            path = cmd_synth(config, seed, out_dir)
            print(path)
        elif args.command == "run":
            path = cmd_run(config, seed, out_dir, base_dir)
            print(path)
        else:
            curves, summary = cmd_errormodel(config, out_dir, base_dir)
            print(curves)
            print(summary)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
