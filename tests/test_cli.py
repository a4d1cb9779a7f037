"""CLI surface: synth/run/errormodel commands, exit codes, determinism,
and report reproducibility from the serialized trace."""

import csv
import json
import math

import pytest

from modcascade import evaluate_run, load_dataset, map_with_fn_accounting
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
    workers=1,
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
        "workers": workers,
        "report_filename": "report.json",
    }


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return path


class TestSynth:
    def test_writes_valid_dataset(self, tmp_path, taxonomy):
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 5, 3))
        assert main(["synth", "--config", str(cfg), "--out", str(tmp_path)]) == 0
        ds = load_dataset(tmp_path / "dataset.json")
        assert len(ds.images) == 5 * 10 + 3
        assert sum(1 for i in ds.images if i.is_negative) == 3

    def test_sequences_partition_same_class_runs(self, tmp_path, taxonomy):
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 10, 0, seq_len=5))
        main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
        ds = load_dataset(tmp_path / "dataset.json")
        assert len(ds.sequences) == 10 * 10 // 5
        for seq in ds.sequences:
            assert len(seq) == 5
            classes = {ds.image_by_id(i).objects[0].fine_label for i in seq}
            assert len(classes) == 1

    def test_same_seed_byte_identical(self, tmp_path, taxonomy):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 8, 4, seq_len=4))
        main(["synth", "--config", str(cfg), "--out", str(a)])
        main(["synth", "--config", str(cfg), "--out", str(b)])
        assert (a / "dataset.json").read_bytes() == (b / "dataset.json").read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, taxonomy):
        a, b = tmp_path / "a", tmp_path / "b"
        cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 8, 0, seed=1))
        main(["synth", "--config", str(cfg), "--out", str(a)])
        main(["synth", "--config", str(cfg), "--seed", "2", "--out", str(b)])
        assert (a / "dataset.json").read_bytes() != (b / "dataset.json").read_bytes()


@pytest.fixture
def small_dataset(tmp_path, taxonomy):
    cfg = write_config(tmp_path, "synth.json", synth_config(taxonomy, 12, 6, seq_len=4))
    main(["synth", "--config", str(cfg), "--out", str(tmp_path)])
    return tmp_path / "dataset.json"


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
        outs = []
        for name, workers in (("r1", 1), ("r2", 1), ("r4", 4)):
            cfg = write_config(
                tmp_path, f"{name}.json",
                run_config(taxonomy, small_dataset, workers=workers),
            )
            out = tmp_path / name
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
            outs.append((out / "report.json").read_bytes())
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
        modular_dets, baseline_dets, invoked = {}, {}, {}
        for rec in trace["images"]:
            baseline_dets[rec["id"]] = parse_dets(rec["baseline"])
            final = []
            for g in rec["invoked"]:
                final.extend(parse_dets(rec["stage2"][g]))
            modular_dets[rec["id"]] = final
            invoked[rec["id"]] = tuple(rec["invoked"])

        re_base = evaluate_run(
            ds.images, baseline_dets, ds.taxonomy,
            iou_threshold=trace["iou_threshold"],
            stage1_inferences=len(ds.images),
        )
        re_mod = evaluate_run(
            ds.images, modular_dets, ds.taxonomy,
            iou_threshold=trace["iou_threshold"],
            invoked_by_image=invoked,
            stage1_inferences=trace["stage1_inferences"],
            stage2_inferences=trace["stage2_inferences"],
        )
        assert re_base.to_json() == report["baseline"]
        mod_json = re_mod.to_json()
        for key, value in mod_json.items():
            assert report["modular"][key] == value

        # the FN-adjusted mAP is reproducible from the trace as well
        routed = [
            img for img in ds.images
            if img.objects
            and all(ds.taxonomy.general_of(o.fine_label) in invoked[img.id] for o in img.objects)
        ]
        re_routed_map = evaluate_run(
            routed, modular_dets, ds.taxonomy, iou_threshold=trace["iou_threshold"]
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


class TestExitCodes:
    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "absent.json")]) == 4

    def test_malformed_config(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{oops")
        assert main(["synth", "--config", str(path)]) == 2

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


MODEL_DOC = {
    "priors": {"c0": 0.5, "c1": 0.5},
    "conditionals": {"c0": [0.6, 0.4, 0.0, 0.0], "c1": [0.0, 0.2, 0.5, 0.3]},
    "weights": {"c0": [1.0, 0.8, 1.0, 1.0], "c1": [1.0, 0.9, 0.7, 1.0]},
    "budget": {"L": 80, "T": 20, "U": 5, "n": 10},
    "capacity": {"r": 1e7, "a_filters": 256, "d": 3, "h": 64, "q": 13, "supK": 120},
}


class TestErrormodelCommand:
    def _run(self, tmp_path, doc, pair=("c0", "c1")):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(doc))
        cfg = write_config(
            tmp_path, "em.json", {"model": "model.json", "pair": list(pair)}
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

    def test_unknown_pair_is_config_error(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps(MODEL_DOC))
        cfg = write_config(tmp_path, "em.json", {"model": "model.json", "pair": ["c0", "zz"]})
        assert main(["errormodel", "--config", str(cfg), "--out", str(tmp_path)]) == 2
