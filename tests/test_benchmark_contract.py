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

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing.TARGETS


@pytest.mark.parametrize("module,func", [(m, f) for m, f, _ in _targets()])
def test_traced_layer_exists(module, func):
    home = importlib.import_module(f"modcascade.{module}")
    # _kernels keeps only greedy_match; spans of its other traced names read 0
    if module != "_kernels" or func == "greedy_match":
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
