"""What the benchmark under perfbench/ relies on from the package.

The benchmark imports every layer module it traces, records
``backend_name()`` and times one loader call per workload as
``setup_s``; a refactor that renames any of them breaks it silently or
at run time, so these checks keep that contract visible to the suite.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

import modcascade
import modcascade.errormodel
from modcascade import detector
from modcascade.cli import main

from test_cli import run_config, synth_config, write_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


# traced targets whose functions are gone: tracing skips each one, and its
# metrics read 0, since evaluate_run matches and scores every run
RETIRED = {("_kernels", "iou_matrix"), ("_kernels", "greedy_match"),
           ("evaluation", "match_detections")}


@pytest.mark.parametrize("module,func", [(m, f) for m, f, _ in _targets()])
def test_traced_layer_exists(module, func):
    home = importlib.import_module(f"modcascade.{module}")
    if (module, func) in RETIRED:
        assert not hasattr(home, func), f"modcascade.{module}.{func} is back"
    else:
        assert callable(getattr(home, func, None)), f"modcascade.{module}.{func}"


def test_backend_name():
    assert modcascade.backend_name() == "python"


def test_setup_loaders(tmp_path, taxonomy):
    """The loaders that ``perfbench/workloads.py`` times: ``load_dataset``
    on a dataset path and ``errormodel.model_file_to_parts`` on a parsed
    model document, each called with that one argument."""
    source = (PERFBENCH / "workloads.py").read_text()
    assert "modcascade.load_dataset(" in source
    assert "modcascade.errormodel.model_file_to_parts(json.load(fh))" in source

    path = tmp_path / "dataset.json"
    path.write_text(json.dumps({"taxonomy": taxonomy.to_json(), "images": []}))
    assert modcascade.load_dataset(path).taxonomy == taxonomy

    doc = {
        "priors": {"c0": 0.5, "c1": 0.5},
        "conditionals": {"c0": [1.0, 0.0], "c1": [0.0, 1.0]},
        "weights": {"c0": [1.0, 1.0], "c1": [1.0, 1.0]},
        "budget": {"L": 8, "T": 2, "U": 1, "n": 2},
    }
    model, budget = modcascade.errormodel.model_file_to_parts(doc)
    assert model.classes == ("c0", "c1") and budget.n_classes == 2


@pytest.mark.parametrize("mode", ["v1", "v2"])
def test_detect_calls_per_role(tmp_path, taxonomy, monkeypatch, mode):
    """The benchmark counts its ``detector.detect.calls.*`` metrics from
    the calls of the module global ``detector.detect``, sorting each by
    its profile's label space as ``perfbench/tracing.py`` does: one
    baseline and one stage-1 call per image, and one stage-2 call per
    stage-2 inference of the report's trace."""
    synth = write_config(tmp_path, "synth.json", synth_config(taxonomy, 4, 6, seq_len=4))
    assert main(["synth", "--config", str(synth), "--out", str(tmp_path)]) == 0
    cfg_dict = run_config(taxonomy, tmp_path / "dataset.json", mode=mode)
    profiles = cfg_dict["profiles"]
    roles = {frozenset(p["label_space"]): "stage2" for p in profiles["stage2"].values()}
    roles[frozenset(profiles["stage1"]["label_space"])] = "stage1"
    roles[frozenset(profiles["baseline"]["label_space"])] = "baseline"
    calls = {"baseline": 0, "stage1": 0, "stage2": 0}
    detect = detector.detect

    def counting_detect(handle, *args):
        calls[roles[frozenset(handle.profile.label_space)]] += 1
        return detect(handle, *args)

    monkeypatch.setattr(detector, "detect", counting_detect)
    cfg = write_config(tmp_path, "run.json", cfg_dict)
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
    trace = json.loads((tmp_path / "out" / "report.json").read_text())["trace"]
    images = len(modcascade.load_dataset(tmp_path / "dataset.json").images)
    assert trace["stage2_inferences"] > 0
    assert calls == {
        "baseline": images,
        "stage1": images,
        "stage2": trace["stage2_inferences"],
    }
