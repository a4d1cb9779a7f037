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
    make_dataset,
    read_int,
    read_json,
    read_name,
    read_number,
    read_object,
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
from .reporting import dump_canonical, output_file


# ---------------------------------------------------------------- synth


@dataclass(frozen=True)
class SynthConfig:
    """A validated ``synth`` config."""

    taxonomy: ClassTaxonomy
    seed: int
    images_per_fine: int
    negatives: int
    width: float
    height: float
    min_box_size: float
    max_box_size: float
    seq_len: int | None
    filename: str


def parse_synth_config(config: Mapping) -> SynthConfig:
    """Validate a synth config document; every fault is a ValidationError.

    Every box must fit its image: min_box_size <= max_box_size <=
    min(width, height).
    """
    width = read_number(config, "width", 800, above=0)
    height = read_number(config, "height", 800, above=0)
    side = min(width, height)
    max_box_size = read_number(config, "max_box_size", side / 2, above=0, at_most=side)
    return SynthConfig(
        taxonomy=ClassTaxonomy.from_json(read_object(config, "taxonomy")),
        seed=read_int(config, "seed", 0, minimum=0),
        images_per_fine=read_int(config, "images_per_fine", 100, minimum=0),
        negatives=read_int(config, "negatives", 0, minimum=0),
        width=width,
        height=height,
        min_box_size=read_number(config, "min_box_size", 80, above=0, at_most=max_box_size),
        max_box_size=max_box_size,
        seq_len=read_int(config, "seq_len", None, minimum=1),
        filename=read_name(config, "filename", "dataset.json"),
    )


def cmd_synth(config: dict, out_dir: Path) -> Path:
    """Generate a synthetic annotation file.

    K images per fine class, one centered-at-random object each, plus
    negative images; optional grouping of each class's images into
    sequences of ``seq_len``. Deterministic given the seed.
    """
    synth = parse_synth_config(config)
    width, height = synth.width, synth.height
    lo, hi = synth.min_box_size, synth.max_box_size
    seq_len = synth.seq_len
    rng = np.random.default_rng(synth.seed)

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
    if isinstance(config.get("model"), str):
        model_doc = read_json(base_dir / read_name(config, "model"), "model file")
    else:
        model_doc = read_object(config, "model")
    model, budget = model_file_to_parts(model_doc)
    pair = config.get("pair")
    if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]):
        raise ValidationError("config needs 'pair': [class0, class1], two distinct class names")
    # the model's class names are strings, so each member is one too
    for c in pair:
        if c not in model.classes:
            raise UnknownLabelError(f"pair names unknown class {c!r}")
    curves = read_name(config, "curves_filename", "curves.csv")
    summary = read_name(config, "summary_filename", "summary.json")
    if Path(curves) == Path(summary):
        raise ValidationError(f"curves_filename and summary_filename both name {summary!r}")
    return ErrormodelConfig(
        model=model,
        budget=budget,
        pair=(pair[0], pair[1]),
        curves_filename=curves,
        summary_filename=summary,
    )


def cmd_errormodel(config: dict, out_dir: Path, base_dir: Path) -> tuple[Path, Path]:
    """Write the curves and the summary, both or neither: if either write
    fails, neither file remains and the error is re-raised."""
    em = parse_errormodel_config(config, base_dir)
    model, budget = em.model, em.budget
    c0, c1 = em.pair

    rows = pdf_curves(model, c0, c1)
    summary = {
        "bayes_error": bayes_error(model, c0, c1),
        "feature_count": feature_count(budget) if budget is not None else None,
        "over_capacity": over_capacity(budget) if budget is not None else None,
    }
    curves_path = out_dir / em.curves_filename
    summary_path = out_dir / em.summary_filename
    with output_file(curves_path) as fh:
        fh.write("feature_index,w_density_c0,w_density_c1,min_term\n")
        for i, w0, w1, mn in rows:
            fh.write(f"{i},{w0:.17g},{w1:.17g},{mn:.17g}\n")
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
        config = read_json(config_path, "config")
        if args.seed is not None:
            config["seed"] = args.seed
        seed = read_int(config, "seed", 0)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        base_dir = config_path.parent
        if args.command == "synth":
            path = cmd_synth(config, out_dir)
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
