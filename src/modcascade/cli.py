"""Command-line surface: reproducible synth / run / errormodel experiments.

One experiment = one JSON config = one report: every setting, the seed
included, comes from the config. All emitted files go through the
canonical JSON writer, so identical configs give byte-identical outputs.

Exit codes: 0 success, 2 config or validation error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import gc
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .core import (
    AnnotatedImage,
    BoundingBox,
    ClassTaxonomy,
    Dataset,
    GroundTruthObject,
    make_dataset,
    read_int,
    read_json,
    read_name,
    read_number,
    read_object,
    save_dataset,
)
from .errormodel import feature_count, model_file_to_parts, over_capacity, pdf_curves
from .errors import UnknownLabelError, ValidationError
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
        seed=read_int(config, "seed", 0, at_least=0),
        images_per_fine=read_int(config, "images_per_fine", 100, at_least=0),
        negatives=read_int(config, "negatives", 0, at_least=0),
        width=width,
        height=height,
        min_box_size=read_number(config, "min_box_size", 80, above=0, at_most=max_box_size),
        max_box_size=max_box_size,
        seq_len=read_int(config, "seq_len", None, at_least=1),
        filename=read_name(config, "filename", "dataset.json"),
    )


def synth_dataset(synth: SynthConfig) -> Dataset:
    """A synthetic dataset: K images per fine class, one centered-at-random
    object each, plus negative images; optional grouping of each class's
    images into sequences of ``seq_len``. Deterministic given the seed."""
    # loaded on call, so that the errormodel command imports no numpy
    import numpy as np

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

    return make_dataset(synth.taxonomy, images, sequences if seq_len else None)


def check_outputs(inputs: Mapping[str, Path], outputs: Mapping[str, Path]) -> None:
    """The one rule of a command's files, checked before any work: each
    output path, resolved, is neither an input nor another output."""
    seen = {os.path.realpath(p): name for name, p in inputs.items()}
    for name, path in outputs.items():
        real = os.path.realpath(path)
        if real in seen:
            raise ValidationError(f"{name} {str(path)!r} names the same file as {seen[real]}")
        seen[real] = name


def cmd_synth(config: dict, out_dir: Path, config_path: Path) -> tuple[Path]:
    """Generate a synthetic annotation file (see ``synth_dataset``)."""
    synth = parse_synth_config(config)
    out_path = out_dir / synth.filename
    check_outputs({"the config": config_path}, {"filename": out_path})
    save_dataset(synth_dataset(synth), out_path)
    return (out_path,)


# ------------------------------------------------------------------ run


def cmd_run(config: dict, out_dir: Path, config_path: Path) -> tuple[Path]:
    """Run the experiment of ``experiment.py`` and write its report."""
    # the cascade's layers load here, so synth and errormodel never import them
    from .experiment import parse_run_config, run_experiment

    run_config = parse_run_config(config, config_path.parent)
    out_path = out_dir / run_config.report_filename
    inputs = {"the config": config_path, "the dataset": run_config.dataset}
    check_outputs(inputs, {"report_filename": out_path})
    dump_canonical(run_experiment(run_config), out_path)
    return (out_path,)


# ------------------------------------------------------------ errormodel


def cmd_errormodel(config: dict, out_dir: Path, config_path: Path) -> tuple[Path, Path]:
    """Evaluate the model file's ``pair`` of classes; every config or model
    file fault is a ValidationError. Write the curves and the summary,
    both or neither: if either write fails, neither file remains and the
    error is re-raised."""
    model_path = config_path.parent / read_name(config, "model")
    model, budget = model_file_to_parts(read_json(model_path, "model file"))
    pair = config.get("pair")
    if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]):
        raise ValidationError("config needs 'pair': [class0, class1], two distinct class names")
    # the model's class names are strings, so each member is one too
    for c in pair:
        if c not in model.classes:
            raise UnknownLabelError(f"pair names unknown class {c!r}")
    curves_path = out_dir / read_name(config, "curves_filename", "curves.csv")
    summary_path = out_dir / read_name(config, "summary_filename", "summary.json")
    inputs = {"the config": config_path, "the model file": model_path}
    check_outputs(inputs, {"curves_filename": curves_path, "summary_filename": summary_path})
    c0, c1 = pair

    rows = pdf_curves(model, c0, c1)
    lines = ["feature_index,w_density_c0,w_density_c1,min_term\n"]
    for i, d0, d1, _ in rows:
        s0, s1 = "%.17g" % d0, "%.17g" % d1
        # the min term is bitwise d0 if d0 < d1 and d1 otherwise, ties
        # and signed zeros included, so it reuses that density's string
        lines.append(f"{i},{s0},{s1},{s0 if d0 < d1 else s1}\n")
    summary = {
        # bayes_error is the fsum of the min column (see pdf_curves)
        "bayes_error": math.fsum([row[3] for row in rows]),
        "feature_count": feature_count(budget) if budget is not None else None,
        "over_capacity": over_capacity(budget) if budget is not None else None,
    }
    with output_file(curves_path) as fh:
        fh.write("".join(lines))
        dump_canonical(summary, summary_path)
    return curves_path, summary_path


# ----------------------------------------------------------------- main


class _Parser(argparse.ArgumentParser):
    """A bad command line is one ``error:`` line and exit 2, like a bad config;
    ``add_subparsers`` gives the subcommands this class too."""

    def error(self, message):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        # looked up here, not at import, so a wrapped cmd_* is the one called
        command = {"synth": cmd_synth, "run": cmd_run, "errormodel": cmd_errormodel}
        for path in command[args.command](config, out_dir, config_path):
            print(path)
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
