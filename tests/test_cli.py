"""CLI surface: synth/run/errormodel commands, exit codes, determinism,
and report reproducibility from the serialized trace."""

import contextlib
import copy
import csv
import gc
import io
import json
import math
import os
import re
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import modcascade
from modcascade import core, detector, experiment
from modcascade import ClassTaxonomy, evaluate_run, load_dataset, map_with_fn_accounting
from modcascade.cli import main
from modcascade.core import BoundingBox, Detection
from modcascade.profiles import flat_profile, stage1_profile, stage2_profiles
from modcascade.detector import ConfidenceLaw


def synth_config(taxonomy, per_fine=20, negatives=10, seq_len=None, seed=3):
    cfg = {
        "taxonomy": taxonomy.to_json(),
        "images_per_fine": per_fine,
        "negatives": negatives,
        "width": 800,
        "height": 800,
        "seed": seed,
        "filename": "dataset.json",
    }
    if seq_len:
        cfg["seq_len"] = seq_len
    return cfg


def run_config(
    taxonomy,
    dataset_path,
    mode="v1",
    tau=0.5,
    seed=11,
    noiseless=False,
    law=None,
):
    if noiseless:
        law = ConfidenceLaw(spread=0.0)
        base = flat_profile(taxonomy, 0.0, confidence_law=law)
        s1 = stage1_profile(taxonomy, 0.0, confidence_law=law)
        s2 = stage2_profiles(taxonomy, 0.0, confidence_law=law)
    else:
        base = flat_profile(taxonomy, 0.12, loc_noise_sigma=1.0, confidence_law=law)
        s1 = stage1_profile(
            taxonomy, 0.0225, miss_rate=0.02, loc_noise_sigma=1.5,
            negative_fp_rate=0.02, confidence_law=law,
        )
        s2 = stage2_profiles(taxonomy, 0.023, loc_noise_sigma=1.0, confidence_law=law)
    return {
        "dataset": str(dataset_path),
        "profiles": {
            "baseline": base.to_json(),
            "stage1": s1.to_json(),
            "stage2": {g: p.to_json() for g, p in s2.items()},
        },
        "routing": {"tau": tau, "mode": mode},
        "eval": {"iou_threshold": 0.5},
        "seed": seed,
        "report_filename": "report.json",
    }


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


def run_in_fresh_interpreter(config_path, out_dir):
    """``python -m modcascade.cli run`` in a new process whose string
    hashes differ from this one's (another ``PYTHONHASHSEED``)."""
    hash_seed = "2" if os.environ.get("PYTHONHASHSEED") == "1" else "1"
    src = str(Path(modcascade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    subprocess.run(
        [sys.executable, "-m", "modcascade.cli", "run",
         "--config", str(config_path), "--out", str(out_dir)],
        env={**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": path},
        check=True, capture_output=True, timeout=120,
    )


class TestSynth:
    def test_writes_valid_dataset(self, tmp_path, taxonomy):
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 5, 3))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        ds = load_dataset(tmp_path / "dataset.json")
        assert len(ds.images) == 5 * 10 + 3
        assert sum(1 for i in ds.images if not i.objects) == 3

    def test_sequences_partition_same_class_runs(self, tmp_path, taxonomy):
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 10, 0, seq_len=5))
        main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
        ds = load_dataset(tmp_path / "dataset.json")
        assert len(ds.sequences) == 10 * 10 // 5
        by_id = {img.id: img for img in ds.images}
        for seq in ds.sequences:
            assert len(seq) == 5
            classes = {by_id[i].objects[0].fine_label for i in seq}
            assert len(classes) == 1

    def test_same_seed_byte_identical(self, tmp_path, taxonomy):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 8, 4, seq_len=4))
        main(["synth", "--config", str(cfg), "--out", str(a)])
        main(["synth", "--config", str(cfg), "--out", str(b)])
        assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()

    def test_seed_comes_from_config(self, tmp_path, taxonomy):
        """Config seeds 1 and 2 give different datasets, and different
        reports on one dataset."""
        dataset = tmp_path / "1" / "dataset.json"
        for seed in (1, 2):
            out = tmp_path / str(seed)
            synth = synth_config(taxonomy, 8, 2, seq_len=4, seed=seed)
            cfg = write_config(tmp_path, f"synth{seed}.json", synth)
            assert main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
            cfg = write_config(tmp_path, f"run{seed}.json", run_config(taxonomy, dataset, seed=seed))
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("dataset.json", "report.json"):
            assert (tmp_path / "1" / name).read_bytes() != (tmp_path / "2" / name).read_bytes()


def _small_dataset(tmp_path, taxonomy):
    cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 12, 6, seq_len=4))
    main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
    return tmp_path / "dataset.json"


@pytest.fixture
def small_dataset(tmp_path, taxonomy):
    return _small_dataset(tmp_path, taxonomy)


class TestRun:
    def test_noiseless_run(self, tmp_path, taxonomy, small_dataset):
        cfg = write_config(
            tmp_path, "run.json", run_config(taxonomy, small_dataset, noiseless=True)
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["baseline"]["map"] == 1.0
        assert report["modular"]["map"] == 1.0
        assert report["modular"]["map_fn_adjusted"] == 1.0
        assert report["baseline"]["classification_error"] == 0.0
        assert report["modular"]["classification_error"] == 0.0
        assert report["advantage"]["advantage"] is False
        assert report["advantage"]["delta1"] == 0.0
        assert report["advantage"]["delta2"] == 0.0
        assert report["modular"]["fn_image_count"] == 0
        assert set(report) == {"baseline", "modular", "trace", "tree_vs_flat", "advantage"}

    def test_calibrated_run_shows_modular_advantage(self, tmp_path, taxonomy):
        scfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 60, 20))
        main(["synth", "--config", str(scfg), "--out", str(tmp_path)])
        cfg = write_config(
            tmp_path, "run.json", run_config(taxonomy, tmp_path / "dataset.json")
        )
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert (
            report["modular"]["classification_error"]
            < report["baseline"]["classification_error"]
        )
        assert report["advantage"]["advantage"] is True
        assert report["tree_vs_flat"]["ratio"] > 1.0
        # stage-1 drops put the total mAP below the routed stage-2 mAP
        assert (
            report["modular"]["map_fn_adjusted"]
            <= report["modular"]["map_stage2_routed"]
        )

    def test_v2_not_worse_than_v1_on_fn_images(self, tmp_path, taxonomy, small_dataset):
        for mode in ("v1", "v2"):
            cfg = write_config(
                tmp_path, f"run_{mode}.json",
                run_config(taxonomy, small_dataset, mode=mode, seed=5),
            )
            out = tmp_path / mode
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        v1 = json.loads((tmp_path / "v1" / "report.json").read_text())
        v2 = json.loads((tmp_path / "v2" / "report.json").read_text())
        assert v2["modular"]["fn_image_count"] <= v1["modular"]["fn_image_count"]

    def test_byte_identical_reruns_and_parallel(self, tmp_path, taxonomy, small_dataset):
        """Two runs in this process and one in a fresh interpreter with
        other string hashes write the same bytes."""
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, small_dataset))
        for name in ("r1", "r2"):
            assert main(["run", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
        run_in_fresh_interpreter(cfg, tmp_path / "fresh")
        outs = [(tmp_path / name / "report.json").read_bytes() for name in ("r1", "r2", "fresh")]
        assert outs[0] == outs[1] == outs[2]

    def test_report_floats_have_17_sig_digits(self, tmp_path, taxonomy, small_dataset):
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, small_dataset))
        main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        text = (tmp_path / "report.json").read_text()
        # a longest-form float appears (17 significant digits)
        import re

        longfloats = re.findall(r"\d\.\d{16}", text)
        assert longfloats, "expected 17-significant-digit floats in the report"

    def test_report_reproducible_from_trace(self, tmp_path, taxonomy, small_dataset):
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, small_dataset))
        main(["run", "--config", str(cfg), "--out", str(tmp_path)])
        report = json.loads((tmp_path / "report.json").read_text())
        ds = load_dataset(small_dataset)

        def parse_dets(raw):
            return [
                Detection(BoundingBox(*d["box"]), d["label"], d["confidence"])
                for d in raw
            ]

        trace = report["trace"]
        assert [rec["id"] for rec in trace["images"]] == [img.id for img in ds.images]
        modular_dets, baseline_dets, invoked = [], [], []
        for rec in trace["images"]:
            baseline_dets.append(parse_dets(rec["baseline"]))
            final = []
            for g in rec["invoked"]:
                final.extend(parse_dets(rec["stage2"][g]))
            modular_dets.append(final)
            invoked.append(tuple(rec["invoked"]))

        re_base = evaluate_run(
            ds.images, baseline_dets, ds.taxonomy,
            iou_threshold=trace["iou_threshold"],
        )
        re_mod = evaluate_run(
            ds.images, modular_dets, ds.taxonomy,
            iou_threshold=trace["iou_threshold"],
            invoked=invoked,
        )
        # each block, less the two inference counts, is one evaluation
        counts = {
            "baseline": (len(ds.images), 0),
            "modular": (trace["stage1_inferences"], trace["stage2_inferences"]),
        }
        for block, rerun in (("baseline", re_base), ("modular", re_mod)):
            got = dict(report[block])
            assert (got.pop("stage1_inferences"), got.pop("stage2_inferences")) == counts[block]
            assert got == rerun.to_json()

        # the FN-adjusted mAP is reproducible from the trace as well
        routed = [
            k for k, (img, generals) in enumerate(zip(ds.images, invoked))
            if img.objects
            and all(ds.taxonomy.general_of(o.fine_label) in generals for o in img.objects)
        ]
        re_routed_map = evaluate_run(
            [ds.images[k] for k in routed], [modular_dets[k] for k in routed], ds.taxonomy,
            iou_threshold=trace["iou_threshold"],
        ).map
        assert report["modular"]["map_stage2_routed"] == re_routed_map
        assert report["modular"]["map_fn_adjusted"] == map_with_fn_accounting(
            re_routed_map, len(routed), re_mod.fn_image_count
        )

    def test_missing_dataset_is_io_error(self, tmp_path, taxonomy):
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, tmp_path / "nope.json"))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 4

    def test_bad_profile_is_config_error(self, tmp_path, taxonomy, small_dataset):
        cfg_dict = run_config(taxonomy, small_dataset)
        del cfg_dict["profiles"]["stage2"]["dog"]
        cfg = write_config(tmp_path, "run.json", cfg_dict)
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_nan_in_profile_is_config_error(self, tmp_path, taxonomy, small_dataset, capsys):
        cfg_dict = run_config(taxonomy, small_dataset)
        cfg_dict["profiles"]["baseline"]["loc_noise_sigma"] = math.nan
        cfg = write_config(tmp_path, "run.json", cfg_dict)
        assert "NaN" in cfg.read_text()
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()


def _drop(key):
    return lambda cfg: cfg.pop(key)


def _set(value, *path):
    def mutate(cfg):
        doc = cfg
        for key in path[:-1]:
            doc = doc[key]
        doc[path[-1]] = value

    return mutate


def _model_file(mutate_model):
    """Write MODEL_DOC changed by ``mutate_model`` to ``model.json`` in the
    working directory, which the test sets to the config's; the config
    keeps naming that file."""

    def mutate(cfg):
        model = copy.deepcopy(MODEL_DOC)
        mutate_model(model)
        Path("model.json").write_text(json.dumps(model))

    return mutate


BAD_RUN_CONFIGS = {
    "no-dataset": _drop("dataset"),
    "dataset-number": _set(3, "dataset"),
    "tau-string": _set("0.5", "routing", "tau"),
    "tau-nan": _set(math.nan, "routing", "tau"),
    "mode-unknown": _set("v3", "routing", "mode"),
    "routing-list": _set([], "routing"),
    "iou-string": _set("0.5", "eval", "iou_threshold"),
    "iou-zero": _set(0, "eval", "iou_threshold"),
    "iou-beyond-float-range": _set(10**400, "eval", "iou_threshold"),
    "seed-string": _set("x", "seed"),
    "profiles-string": _set("x", "profiles"),
    "stage2-list": _set([], "profiles", "stage2"),
    "no-stage1": lambda cfg: cfg["profiles"].pop("stage1"),
    "sigma-string": _set("x", "profiles", "baseline", "loc_noise_sigma"),
    # valid means whose Beta shape rounds to 0
    "run-mean-correct-5e-324": _set(5e-324, "profiles", "baseline", "confidence_law", "mean_correct"),
    "run-mean-wrong-1e-321": _set(1e-321, "profiles", "stage1", "confidence_law", "mean_wrong"),
    "probability-string": _set("0.5", "profiles", "stage1", "confusion", "pekinese", "dog"),
    "profile-confusion-row-pairs": _set(
        [["dog", 0.9], ["boat", 0.1]], "profiles", "stage1", "confusion", "pekinese"
    ),
    "profile-no-label-space": lambda cfg: cfg["profiles"]["baseline"].pop("label_space"),
    "profile-label-space-empty": _set([], "profiles", "baseline", "label_space"),
    # the repeat passes the set comparison with the taxonomy's generals
    "stage1-label-space-repeat": lambda cfg: cfg["profiles"]["stage1"]["label_space"].append(
        cfg["profiles"]["stage1"]["label_space"][0]
    ),
    "stage1-label-space-names-fine": lambda cfg: cfg["profiles"]["stage1"]["label_space"].append(
        "pekinese"
    ),
    "stage2-label-space-of-another-general": lambda cfg: cfg["profiles"]["stage2"].update(
        dog=cfg["profiles"]["stage2"]["boat"]
    ),
    "correct-for-list": _set([], "profiles", "stage1", "correct_for"),
    "correct-for-outside-label-space": _set("zzz", "profiles", "stage1", "correct_for", "pekinese"),
    "report-filename-number": _set(7, "report_filename"),
    "dataset-surrogate": _set("\ud800", "dataset"),
    "dataset-nul": _set("a\x00b", "dataset"),
    "report-filename-surrogate": _set("\ud800", "report_filename"),
    "report-filename-nul": _set("a\x00b", "report_filename"),
    # --out is a folder beside the inputs
    "report-over-dataset": _set("../dataset.json", "report_filename"),
}

BAD_SYNTH_CONFIGS = {
    "synth-no-taxonomy": _drop("taxonomy"),
    "synth-taxonomy-list": _set([], "taxonomy"),
    "synth-no-generals": _set({}, "taxonomy", "generals"),
    "synth-miss-label": _set(["__MISS__", "spaniel"], "taxonomy", "generals", "dog"),
    "synth-generals-list": _set(["dog"], "taxonomy", "generals"),
    "synth-fine-label-list": _set([["a"], "b"], "taxonomy", "generals", "dog"),
    "synth-fine-label-number": _set([1, "b"], "taxonomy", "generals", "dog"),
    "synth-fine-label-null": _set([None, "b"], "taxonomy", "generals", "dog"),
    "synth-fine-labels-string": _set("ab", "taxonomy", "generals", "dog"),
    "synth-images-per-fine-string": _set("many", "images_per_fine"),
    "synth-images-per-fine-float": _set(2.5, "images_per_fine"),
    "synth-negatives-negative": _set(-1, "negatives"),
    "synth-width-string": _set("wide", "width"),
    "synth-height-zero": _set(0, "height"),
    "synth-box-size-nan": _set(math.nan, "min_box_size"),
    "synth-seq-len-string": _set("5", "seq_len"),
    "synth-seq-len-zero": _set(0, "seq_len"),
    "synth-filename-number": _set(7, "filename"),
    "synth-fine-label-surrogate": _set(["\ud800", "spaniel"], "taxonomy", "generals", "dog"),
    "synth-negative-label-surrogate": _set("\ud800", "taxonomy", "negative_label"),
    "synth-filename-surrogate": _set("\ud800", "filename"),
    "synth-filename-nul": _set("a\x00b", "filename"),
    "synth-seed-negative": _set(-1, "seed"),
    "synth-box-sizes-crossed": lambda cfg: cfg.update(min_box_size=300, max_box_size=200),
    "synth-max-box-beyond-image": _set(900, "max_box_size"),
    "synth-width-below-default-boxes": _set(50, "width"),
    "synth-dataset-over-config": _set("../config.json", "filename"),
}

BAD_ERRORMODEL_CONFIGS = {
    "errormodel-no-model": _drop("model"),
    "errormodel-model-number": _set(3, "model"),
    "errormodel-model-list": _set([1, 2], "model"),
    "errormodel-model-file-list": _set("list.json", "model"),
    "errormodel-no-pair": _drop("pair"),
    "errormodel-pair-one": _set(["c0"], "pair"),
    "errormodel-pair-same": _set(["c0", "c0"], "pair"),
    "errormodel-pair-number": _set(["c0", 1], "pair"),
    "errormodel-pair-string": _set("c0,c1", "pair"),
    "errormodel-pair-unknown": _set(["c0", "zz"], "pair"),
    "errormodel-curves-filename-empty": _set("", "curves_filename"),
    "errormodel-curves-filename-surrogate": _set("\ud800", "curves_filename"),
    "errormodel-summary-filename-nul": _set("a\x00b", "summary_filename"),
    "errormodel-model-surrogate": _set("\ud800", "model"),
    "errormodel-model-nul": _set("a\x00b", "model"),
    "errormodel-conditionals-list": _model_file(_set([], "conditionals")),
    "errormodel-no-classes": _model_file(
        lambda model: model.update(priors={}, conditionals={}, weights={})
    ),
    "errormodel-conditional-string": _model_file(_set(["x", 1.0, 0.0, 0.0], "conditionals", "c0")),
    "errormodel-conditional-bool": _model_file(_set([True, False, False, False], "conditionals", "c0")),
    "errormodel-conditional-nan": _model_file(_set([math.nan, 1.0, 0.0, 0.0], "conditionals", "c0")),
    "errormodel-weight-nan": _model_file(_set([1.0, math.nan, 1.0, 1.0], "weights", "c1")),
    "errormodel-weight-bool-mixed": _model_file(_set([True, 0.8, 1.0, 1.0], "weights", "c0")),
    "errormodel-conditional-huge-int": _model_file(
        _set([0.6, 0.4, 0.0, 10**400], "conditionals", "c0")
    ),
    "errormodel-priors-pairs": _model_file(_set([["c0", 0.5], ["c1", 0.5]], "priors")),
    "errormodel-prior-nan": _model_file(_set(math.nan, "priors", "c0")),
    "errormodel-budget-list": _model_file(_set([80, 20, 5, 10], "budget")),
    "errormodel-budget-string": _model_file(_set("x", "budget", "L")),
    "errormodel-budget-nan": _model_file(_set(math.nan, "budget", "U")),
    "errormodel-budget-no-n": _model_file(lambda model: model["budget"].pop("n")),
    "errormodel-budget-n-float": _model_file(_set(2.5, "budget", "n")),
    # finite counts whose features per class (L + T) / n + U overflow a double
    "errormodel-budget-features-overflow": _model_file(
        lambda model: model["budget"].update(L=1e308, T=1e308)
    ),
    "errormodel-budget-n-beyond-double": _model_file(
        lambda model: model["budget"].update(L=80.0, n=10**400)
    ),
    "errormodel-capacity-string": _model_file(_set("big", "capacity", "supK")),
    "errormodel-output-names-equal": _set("curves.csv", "summary_filename"),
    "errormodel-output-names-same-path": _set("./summary.json", "curves_filename"),
    "errormodel-output-names-resolve-equal": lambda cfg: cfg.update(
        curves_filename="sub/../same.txt", summary_filename="same.txt"
    ),
    "errormodel-summary-over-model-file": _set("../model.json", "summary_filename"),
}

BAD_CONFIGS = {
    **{k: ("run", m) for k, m in BAD_RUN_CONFIGS.items()},
    **{k: ("synth", m) for k, m in BAD_SYNTH_CONFIGS.items()},
    **{k: ("errormodel", m) for k, m in BAD_ERRORMODEL_CONFIGS.items()},
}


def _write_bad_config(tmp_path, taxonomy, command, mutate):
    """Write a valid config of ``command`` and its inputs to ``tmp_path``,
    the working directory, changed by ``mutate``; the config's path."""
    if command == "run":
        cfg_dict = run_config(taxonomy, _small_dataset(tmp_path, taxonomy))
    elif command == "synth":
        cfg_dict = synth_config(taxonomy, 2, 1, seq_len=2)
    else:
        (tmp_path / "model.json").write_text(json.dumps(MODEL_DOC))
        (tmp_path / "list.json").write_text("[1, 2]")
        cfg_dict = {"model": "model.json", "pair": ["c0", "c1"]}
    mutate(cfg_dict)
    return write_config(tmp_path, "config.json", cfg_dict)


@pytest.mark.parametrize("command, mutate", list(BAD_CONFIGS.values()), ids=list(BAD_CONFIGS))
def test_bad_run_config_is_one_line_error(
    tmp_path, taxonomy, capsys, monkeypatch, command, mutate
):
    """Every malformed config of every command: exit 2, one stderr line,
    no output file, and every input file as it was."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_bad_config(tmp_path, taxonomy, command, mutate)
    inputs = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob("*"))
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == inputs


# a Python exception's repr, such as ``KeyError('n')``, or a TypeError's text
EXCEPTION_REPR = re.compile(r"[A-Z]\w*Error\(|list indices")

# command, mutation, and the field the error line names
FIELD_ERRORS = {
    "profile-no-label-space": (
        "run", lambda cfg: cfg["profiles"]["stage1"].pop("label_space"), "label_space"
    ),
    "profile-confusion-list": ("run", _set([], "profiles", "baseline", "confusion"), "confusion"),
    "profile-confidence-law-list": (
        "run", _set([], "profiles", "stage1", "confidence_law"), "confidence_law"
    ),
    "profile-label-list": ("run", _set([["a"]], "profiles", "baseline", "label_space"), "label_space"),
    "profile-label-number": ("run", _set([1, 2], "profiles", "baseline", "label_space"), "label_space"),
    "model-budget-list": ("errormodel", _model_file(_set([80, 20, 5, 10], "budget")), "budget"),
    "model-budget-no-n": (
        "errormodel", _model_file(lambda model: model["budget"].pop("n")), "budget n"
    ),
    "model-capacity-list": ("errormodel", _model_file(_set([120], "capacity")), "capacity"),
    "model-capacity-supk-null": (
        "errormodel", _model_file(_set(None, "capacity", "supK")), "capacity supK"
    ),
}


@pytest.mark.parametrize(
    "command, mutate, field", list(FIELD_ERRORS.values()), ids=list(FIELD_ERRORS)
)
def test_profile_and_model_file_errors_name_the_field(
    tmp_path, taxonomy, capsys, monkeypatch, command, mutate, field
):
    """A malformed profile or model-file field: exit 2 and one stderr
    line that names the field, not a Python exception's repr."""
    monkeypatch.chdir(tmp_path)
    cfg = _write_bad_config(tmp_path, taxonomy, command, mutate)
    assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert field in err and not EXCEPTION_REPR.search(err), err


def _dataset_doc(taxonomy):
    return {
        "taxonomy": taxonomy.to_json(),
        "images": [
            {"id": "img001", "width": 100, "height": 100,
             "objects": [{"label": "pekinese", "box": [0, 0, 10, 10]}]},
            {"id": "img002", "width": 100.0, "height": 100.0, "objects": []},
        ],
        "sequences": [["img001", "img002"]],
    }


def _set_image(value, *path):
    return _set(value, "images", *path)


def _set_area(doc, side, box):
    image = doc["images"][0]
    image["width"] = image["height"] = side
    image["objects"][0]["box"] = box


BAD_DATASETS = {
    "images-number": _set(5, "images"),
    "image-record-number": _set([5], "images"),
    # the sequences would name an unknown id
    "image-id-list": lambda doc: (doc.pop("sequences"), _set_image(["img001"], 0, "id")(doc)),
    "image-id-number": lambda doc: (doc.pop("sequences"), _set_image(3, 0, "id")(doc)),
    "object-label-list": _set_image(["pekinese"], 0, "objects", 0, "label"),
    "sequences-number": _set(5, "sequences"),
    "sequence-id-list": _set([[["img001"]]], "sequences"),
    "box-string": _set_image(["0", 0, 10, 10], 0, "objects", 0, "box"),
    "box-beyond-float-range": _set_image([0, 0, 10**400, 10], 0, "objects", 0, "box"),
    "width-string": _set_image("100", 0, "width"),
    "image-id-surrogate": lambda doc: (doc.pop("sequences"), _set_image("\ud800", 0, "id")(doc)),
    "image-id-empty": lambda doc: (doc.pop("sequences"), _set_image("", 0, "id")(doc)),
    # areas IoU cannot compute in doubles; each ran to exit 0, its box
    # scored as a false positive plus a miss. The image area overflows,
    # and so does IoU's sum of two box areas:
    "area-1.7e308": lambda doc: _set_area(doc, 1.7e308, [0, 0, 1.6e308, 1.6e308]),
    # the area is finite but twice it is not: IoU of the box with itself is 0.0
    "area-1.3e154": lambda doc: _set_area(doc, 1.3e154, [0, 0, 1.3e154, 1.3e154]),
    # the box area is below the smallest normal double: IoU with itself is 0.0
    "box-area-1e-340": lambda doc: _set_area(doc, 100, [0, 0, 1e-170, 1e-170]),
}


@pytest.mark.parametrize("mutate", list(BAD_DATASETS.values()), ids=list(BAD_DATASETS))
def test_bad_dataset_is_one_line_error(tmp_path, taxonomy, capsys, mutate):
    """A dataset document of the wrong shape, or with a string where a
    number belongs: exit 2, one stderr line, no report."""
    doc = _dataset_doc(taxonomy)
    (tmp_path / "good.json").write_text(json.dumps(doc))
    assert len(load_dataset(tmp_path / "good.json").images) == 2
    mutate(doc)
    (tmp_path / "dataset.json").write_text(json.dumps(doc))
    cfg = write_config(tmp_path, "run.json", run_config(taxonomy, tmp_path / "dataset.json"))
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob("*"))


DEEP = b"[" * 100_000  # unclosed, nested past the reader's depth limit

# (command, the document written as raw bytes, its bytes); every other
# input of the command is valid
RAW_DOCUMENTS = {
    "run-config-undecodable": ("run", "config", b'{"dataset": "\xff\xfe"}'),
    "run-config-deep": ("run", "config", DEEP),
    "synth-config-undecodable": ("synth", "config", b'{"taxonomy": "\xff"}'),
    "synth-config-deep": ("synth", "config", DEEP),
    "errormodel-config-undecodable": ("errormodel", "config", b'{"model": "\xff"}'),
    "errormodel-config-deep": ("errormodel", "config", DEEP),
    "dataset-undecodable-id": ("run", "dataset", None),
    "dataset-deep": ("run", "dataset", DEEP),
    "model-undecodable-key": ("errormodel", "model", b'{"priors": {"\xff": 1.0}}'),
    "model-deep": ("errormodel", "model", DEEP),
    # 5,000 digits, whose nearest double is infinite
    "run-config-long-integer": ("run", "config", b'{"seed": ' + b"1" * 5000 + b"}"),
}


@pytest.mark.parametrize(
    "command, document, raw", list(RAW_DOCUMENTS.values()), ids=list(RAW_DOCUMENTS)
)
def test_unreadable_json_is_one_line_error(tmp_path, taxonomy, capsys, command, document, raw):
    """A document that is not UTF-8, or nests too deep to parse: exit 2,
    one stderr line, no output file."""
    if document == "dataset" and raw is None:
        good = json.dumps(_dataset_doc(taxonomy)).encode("utf-8")
        raw = good.replace(b'"img001"', b'"\xff"')
    paths = {"config": tmp_path / "config.json", "dataset": tmp_path / "dataset.json",
             "model": tmp_path / "model.json"}
    if command == "run":
        (tmp_path / "dataset.json").write_text(json.dumps(_dataset_doc(taxonomy)))
        config = run_config(taxonomy, paths["dataset"])
    elif command == "synth":
        config = synth_config(taxonomy, 2, 1)
    else:
        paths["model"].write_text(json.dumps(MODEL_DOC))
        config = {"model": "model.json", "pair": ["c0", "c1"]}
    paths["config"].write_text(json.dumps(config))
    paths[document].write_bytes(raw)
    out = tmp_path / "out"
    assert main([command, "--config", str(paths["config"]), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(out.glob("*"))


@pytest.mark.parametrize("args", [
    ["bogus", "--config", "{cfg}"],
    ["run", "--out", "{out}"],
    ["run", "--config", "{cfg}", "--seed", "abc", "--out", "{out}"],
    ["errormodel", "--config", "{cfg}", "--seed", "5", "--out", "{out}"],
    ["synth", "--config", "{cfg}", "--out", "{out}", "--images", "3"],
], ids=["unknown-command", "missing-config", "seed-abc", "errormodel-seed", "unknown-flag"])
def test_bad_command_line_is_one_line_error(tmp_path, taxonomy, capsys, args):
    cfg = write_config(tmp_path, "config.json", synth_config(taxonomy, 2, 1))
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main([a.format(cfg=cfg, out=out) for a in args])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert not out.exists()


def test_help_is_argparse_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: modcascade run [-h] --config CONFIG")


@pytest.mark.parametrize("command, code", [("synth", 2), ("run", 0)])
def test_config_seed_minus_one(tmp_path, taxonomy, capsys, command, code):
    """A config ``"seed": -1`` is a one-line error for synth, whose
    generator takes seeds >= 0; run takes a negative seed."""
    if command == "synth":
        config = synth_config(taxonomy, 2, 1, seed=-1)
    else:
        config = run_config(taxonomy, _small_dataset(tmp_path, taxonomy), seed=-1)
    cfg = write_config(tmp_path, "config.json", config)
    out = tmp_path / "out"
    capsys.readouterr()
    assert main([command, "--config", str(cfg), "--out", str(out)]) == code
    err = capsys.readouterr().err
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1 and "seed" in err
        assert not list(out.glob("*"))


def test_v2_without_sequences_fails_before_any_detection(tmp_path, taxonomy, capsys, monkeypatch):
    scfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 3, 2))
    assert main(["synth", "--config", str(scfg), "--out", str(tmp_path)]) == 0
    calls = []
    detect = detector.detect

    def counting_detect(handle, image, *args):
        calls.append(image.id)
        return detect(handle, image, *args)

    monkeypatch.setattr(detector, "detect", counting_detect)
    cfg = write_config(
        tmp_path, "run.json", run_config(taxonomy, tmp_path / "dataset.json", mode="v2")
    )
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "sequences" in err
    assert calls == []
    assert not list(out.glob("*"))


def test_cyclic_garbage_does_not_grow_with_the_dataset(tmp_path, taxonomy):
    """``main`` runs with the cyclic collector off, so whatever cycles a
    run leaves are collected only afterwards: their count must not grow
    with the data."""
    collected = []
    for name, per_fine in (("warmup", 3), ("small", 3), ("large", 12)):
        work = tmp_path / name
        synth = synth_config(taxonomy, per_fine, per_fine)
        scfg = write_config(tmp_path, f"{name}_synth.json", synth)
        assert main(["synth", "--config", str(scfg), "--out", str(work)]) == 0
        rcfg = run_config(taxonomy, work / "dataset.json")
        cfg = write_config(tmp_path, f"{name}_run.json", rcfg)
        gc.collect()
        assert main(["run", "--config", str(cfg), "--out", str(work)]) == 0
        assert gc.isenabled()
        collected.append(gc.collect())
    assert collected[1] == collected[2]


def test_each_evaluation_is_freed_before_the_next_one(
    tmp_path, taxonomy, small_dataset, monkeypatch
):
    """No two evaluations' reports are alive at once."""
    reports = []
    evaluate_run = experiment.evaluate_run

    def spy(*args, **kwargs):
        assert all(ref() is None for ref in reports)
        report = evaluate_run(*args, **kwargs)
        reports.append(weakref.ref(report))
        return report

    monkeypatch.setattr(experiment, "evaluate_run", spy)
    cfg = write_config(tmp_path, "run.json", run_config(taxonomy, small_dataset, mode="v2"))
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert len(reports) == 3


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 4

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["synth", "--config", str(path)]) == 2

    def test_config_must_be_an_object(self, tmp_path, capsys):
        path = tmp_path / "list.json"
        path.write_text("[1, 2]")
        assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.count("\n") == 1

    def test_corrupt_dataset_is_validation_error(self, tmp_path, taxonomy):
        ds_path = tmp_path / "ds.json"
        ds_path.write_text(
            json.dumps(
                {
                    "taxonomy": taxonomy.to_json(),
                    "images": [
                        {"id": "x", "width": 100, "height": 100,
                         "objects": [{"label": "ghost", "box": [0, 0, 10, 10]}]}
                    ],
                }
            )
        )
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, ds_path))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    def test_non_string_taxonomy_label_in_dataset_is_validation_error(
        self, tmp_path, taxonomy, capsys
    ):
        doc = taxonomy.to_json()
        doc["generals"]["dog"] = [["pekinese"], "spaniel"]
        ds_path = tmp_path / "ds.json"
        ds_path.write_text(json.dumps({"taxonomy": doc, "images": []}))
        cfg = write_config(tmp_path, "run.json", run_config(taxonomy, ds_path))
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "not a string" in err
        assert not list(out.glob("*"))


MODEL_DOC = {
    "priors": {"c0": 0.5, "c1": 0.5},
    "conditionals": {"c0": [0.6, 0.4, 0.0, 0.0], "c1": [0.0, 0.2, 0.5, 0.3]},
    "weights": {"c0": [1.0, 0.8, 1.0, 1.0], "c1": [1.0, 0.9, 0.7, 1.0]},
    "budget": {"L": 80, "T": 20, "U": 5, "n": 10},
    "capacity": {"supK": 120},
}


class TestErrormodelCommand:
    def _run(self, tmp_path, doc, pair=("c0", "c1"), extra=None):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path, "em.json", {"model": "model.json", "pair": list(pair), **(extra or {})}
        )
        assert main(["errormodel", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        with open(tmp_path / "curves.csv") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((tmp_path / "summary.json").read_text())
        return rows, summary

    def test_summary_matches_csv_min_column(self, tmp_path):
        rows, summary = self._run(tmp_path, MODEL_DOC)
        assert len(rows) == 4
        col = [float(r["min_term"]) for r in rows]
        assert math.fsum(col) == summary["bayes_error"]
        assert summary["feature_count"] == 15.0
        assert summary["over_capacity"] is False

    def test_disjoint_model_zero_error(self, tmp_path):
        doc = dict(MODEL_DOC)
        doc["conditionals"] = {"c0": [1.0, 0.0, 0.0, 0.0], "c1": [0.0, 0.0, 0.0, 1.0]}
        _, summary = self._run(tmp_path, doc)
        assert summary["bayes_error"] == 0.0

    def test_fewer_classes_gives_more_features(self, tmp_path):
        wide = dict(MODEL_DOC)
        _, summary10 = self._run(tmp_path, wide)
        narrow = dict(MODEL_DOC)
        narrow["budget"] = {"L": 80, "T": 20, "U": 5, "n": 2}
        _, summary2 = self._run(tmp_path, narrow)
        assert summary2["feature_count"] > summary10["feature_count"]

    def test_seed_key_is_not_read(self, tmp_path):
        """The error model draws nothing: a config's ``seed``, even one that
        is not an integer, changes no output byte."""
        outputs = []
        for name, extra in (("plain", {}), ("seeded", {"seed": "x"})):
            out = tmp_path / name
            out.mkdir()
            self._run(out, MODEL_DOC, extra=extra)
            outputs.append([(out / f).read_bytes() for f in ("curves.csv", "summary.json")])
        assert outputs[0] == outputs[1]

    def test_unknown_pair_is_config_error(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(MODEL_DOC))
        cfg = write_config(tmp_path, "em.json", {"model": "model.json", "pair": ["c0", "zz"]})
        assert main(["errormodel", "--config", str(cfg), "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("key", ["curves_filename", "summary_filename"])
    def test_failed_write_leaves_neither_output(self, tmp_path, capsys, key):
        """Either output unwritable (a directory): exit 4, one stderr
        line, and neither file in the output directory, also when the
        curves were already written."""
        (tmp_path / "model.json").write_text(json.dumps(MODEL_DOC))
        cfg_dict = {"model": "model.json", "pair": ["c0", "c1"], key: "."}
        cfg = write_config(tmp_path, "em.json", cfg_dict)
        out = tmp_path / "out"
        assert main(["errormodel", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.startswith("i/o error: ") and err.count("\n") == 1
        assert not list(out.glob("*"))


# ------------------------------------------------------------------ fuzz

FUZZ_TAXONOMY = ClassTaxonomy({"dog": ("pekinese", "spaniel"), "boat": ("kayak", "canoe")})

# command, config file, and the file each document kind is written to
FUZZ_KINDS = {
    "run": ("run", "run.json", "run.json"),
    "synth": ("synth", "synth.json", "synth.json"),
    "errormodel": ("errormodel", "errormodel.json", "errormodel.json"),
    "dataset": ("run", "run.json", "dataset.json"),
    "model": ("errormodel", "errormodel.json", "model.json"),
}

FUZZ_VALUES = ("x", [], None, math.nan, True, -1, "\ud800", "a\x00b")


def _fuzz_documents():
    """A tiny valid document of each kind, keyed by file name."""
    dataset = {
        "taxonomy": FUZZ_TAXONOMY.to_json(),
        "images": [
            {"id": "a", "width": 100.0, "height": 80.0,
             "objects": [{"label": "pekinese", "box": [1.0, 2.0, 30.0, 40.0]}]},
            {"id": "b", "width": 100, "height": 80,
             "objects": [{"label": "canoe", "box": [10, 5, 20, 20]}]},
            {"id": "c", "width": 100.0, "height": 80.0, "objects": []},
        ],
        "sequences": [["a", "b"]],
    }
    synth = synth_config(FUZZ_TAXONOMY, per_fine=1, negatives=1, seq_len=2)
    return {
        "run.json": run_config(FUZZ_TAXONOMY, "dataset.json", mode="v2"),
        "synth.json": synth,
        "errormodel.json": {"model": "model.json", "pair": ["c0", "c1"]},
        "dataset.json": dataset,
        "model.json": MODEL_DOC,
    }


def _paths(doc, prefix=()):
    """The key/index path of every value under the root of ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    for key, value in items:
        yield prefix + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, prefix + (key,))


FUZZ_PATHS = {kind: sorted(_paths(_fuzz_documents()[file]), key=repr)
              for kind, (_, _, file) in FUZZ_KINDS.items()}


def _assert_runs_cleanly(kind, path, mutation, work):
    """Apply ``mutation`` to the field at ``path`` of the ``kind`` document:
    "drop", "wrap", a new value, or bytes written there as raw JSON text
    (a new key when ``path`` names none). Write the five documents to
    ``work`` and run the command: exit 0, 2 or 4, and a failure is one
    stderr line, without a Python exception's repr, and leaves no output
    file. Returns the code and stderr."""
    command, config_file, file = FUZZ_KINDS[kind]
    docs = copy.deepcopy(_fuzz_documents())
    parent = docs[file]
    for key in path[:-1]:
        parent = parent[key]
    key = path[-1]
    raw = mutation if isinstance(mutation, bytes) else None
    if raw is not None:
        parent[key] = "<raw>"
    elif mutation == "drop":
        parent.pop(key)
    elif mutation == "wrap":
        parent[key] = [parent[key]]
    else:
        parent[key] = mutation

    for name, doc in docs.items():
        text = json.dumps(doc).encode()
        (work / name).write_bytes(text if raw is None else text.replace(b'"<raw>"', raw))
    out = work / "out"
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "--config", str(work / config_file), "--out", str(out)])
    assert code in (0, 2, 4), err.getvalue()
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert not EXCEPTION_REPR.search(err.getvalue()), err.getvalue()
        assert not list(out.glob("*"))
    return code, err.getvalue()


@settings(max_examples=500, deadline=None)
@given(data=st.data())
def test_one_field_mutations_of_every_document(data, tmp_path_factory):
    """One field of one of the five input documents replaced by a value
    of another type, dropped, or wrapped in a list: the command exits 0,
    2 or 4, and a failure is one stderr line and leaves no output file.
    No value is a huge integer: as a synth count it would be valid but
    unbounded work."""
    kind = data.draw(st.sampled_from(sorted(FUZZ_KINDS)), label="document")
    path = data.draw(st.sampled_from(FUZZ_PATHS[kind]), label="field")
    mutation = data.draw(st.sampled_from(("drop", "wrap") + FUZZ_VALUES), label="mutation")
    _assert_runs_cleanly(kind, path, mutation, tmp_path_factory.mktemp("fuzz"))


FUZZ_EXTREMES = (1e308, 5e-324, -0.0, 2**53 + 1, 10**400)
# a huge count of synth images is valid, but unbounded work
FUZZ_UNBOUNDED = {("synth", ("images_per_fine",)), ("synth", ("negatives",))}


def _extreme_cases():
    """(document kind, path, value) for every number-valued field and
    every extreme value, but the large integers at FUZZ_UNBOUNDED."""
    docs = _fuzz_documents()
    cases = []
    for kind, (_, _, file) in sorted(FUZZ_KINDS.items()):
        for path in FUZZ_PATHS[kind]:
            value = docs[file]
            for key in path:
                value = value[key]
            if type(value) in (int, float):
                cases += [(kind, path, v) for v in FUZZ_EXTREMES
                          if not ((kind, path) in FUZZ_UNBOUNDED and type(v) is int)]
    return cases


FUZZ_EXTREME_CASES = _extreme_cases()


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(FUZZ_EXTREME_CASES))
def test_numeric_extremes_of_every_document(case, tmp_path_factory):
    """One number-valued field of one of the five input documents (98
    fields) set to 1e308, 5e-324, -0.0, 2**53 + 1 or 10**400: the command
    exits 0, 2 or 4, and a failure is one stderr line and leaves no output
    file. A value may be valid and still break a later computation: a tiny
    confidence mean rounds a Beta shape to 0, a huge count overflows the
    features per class. The two large integers are left out at synth's
    ``images_per_fine`` and ``negatives``: they are valid counts that mean
    unbounded work. The cases are sampled, not enumerated, to bound the
    time of the suite."""
    _assert_runs_cleanly(*case, tmp_path_factory.mktemp("fuzz"))


def _nested(depth):
    return b"[" * depth + b"]" * depth


# a field of each document that its command validates, and whose value
# the error message repeats
VALIDATED_FIELDS = {
    "run": ("dataset",),
    "synth": ("filename",),
    "errormodel": ("curves_filename",),
    "dataset": ("images", 0, "id"),
    "model": ("conditionals", "c0"),
}


@pytest.mark.parametrize("field", ["validated", "unknown"])
@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
def test_closed_deep_value_in_every_document(tmp_path, kind, field):
    """A closed array 100,000 deep, which the decoder would read, at a
    field the command validates or under a key nothing reads, in each of
    the five documents: exit 2, one stderr line, no output file. Read, it
    would end validation in a RecursionError from the value's repr, and
    150,000 levels crash the decoder."""
    path = VALIDATED_FIELDS[kind] if field == "validated" else ("unknown",)
    code, err = _assert_runs_cleanly(kind, path, _nested(100_000), tmp_path)
    assert code == 2 and "nest deeper than" in err


@pytest.mark.parametrize("kind", sorted(FUZZ_KINDS))
def test_value_at_the_depth_limit_is_validated(tmp_path, kind):
    """At a validated field, a value whose document nests exactly as deep
    as the reader allows is read and rejected for its type, one level
    more is refused unread: both one-line errors with exit 2."""
    path = VALIDATED_FIELDS[kind]
    depth = core._MAX_DEPTH - len(path)  # each key or index is one level
    code, err = _assert_runs_cleanly(kind, path, _nested(depth), tmp_path)
    assert code == 2 and "nest deeper than" not in err
    (tmp_path / "deeper").mkdir()
    code, err = _assert_runs_cleanly(kind, path, _nested(depth + 1), tmp_path / "deeper")
    assert code == 2 and "nest deeper than" in err


# (document kind, field, JSON text of its value, exit code, text of the error)
DECODER_NUMBER_RULES = {
    # an integer in [-2**63, 2**64) is an int
    "seed-2**64-1": ("run", ("seed",), b"18446744073709551615", 0, ""),
    # beyond it, the nearest double, which is no integer
    "seed-2**64": ("run", ("seed",), b"18446744073709551616", 2,
                   "seed 1.8446744073709552e+19 is not an integer"),
    "seed--2**63-1": ("run", ("seed",), b"-9223372036854775809", 2,
                      "seed -9.223372036854776e+18 is not an integer"),
    # a number whose nearest double is infinite does not parse
    "seed-10**400": ("run", ("seed",), b"1" + b"0" * 400, 2, "parse error"),
    # NaN and Infinity are not JSON, also where nothing reads them
    "nan-under-unknown-key": ("run", ("unknown",), b"NaN", 2, "parse error"),
    "infinity-in-model-under-unknown-key": ("model", ("unknown",), b"-Infinity", 2, "parse error"),
}


@pytest.mark.parametrize(
    "kind, path, raw, code, message", list(DECODER_NUMBER_RULES.values()),
    ids=list(DECODER_NUMBER_RULES),
)
def test_decoder_number_rules(tmp_path, kind, path, raw, code, message):
    """The number rules of the decoder, as README "File formats" states
    them: a long integer reads as a double, NaN is a parse error."""
    got, err = _assert_runs_cleanly(kind, path, raw, tmp_path)
    assert got == code and message in err
