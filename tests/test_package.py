"""The package surface: which modules a caller loads, and the names that
``modcascade`` exports.

The cold-start checks run in fresh interpreters, because this process
has already imported every submodule.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import modcascade

# the names the package exports, by home module: those of the eager
# ``from .x import ...`` blocks it had before its exports were resolved on
# first use, less the one-image matcher that ``evaluate_run`` replaced
EXPORTS = {
    "_kernels": ["backend_name"],
    "core": [
        "MISS", "AnnotatedImage", "BoundingBox", "ClassTaxonomy", "Dataset", "Detection",
        "GroundTruthObject", "load_dataset", "make_dataset", "save_dataset", "validate_taxonomy",
    ],
    "detector": ["ConfidenceLaw", "DetectorHandle", "DetectorProfile", "detect"],
    "errormodel": [
        "FeatureBudget", "FeatureClassModel", "bayes_error", "deformation_check",
        "feature_count", "merge_general", "modular_advantage", "over_capacity", "pdf_curves",
    ],
    "errors": ["UnknownLabelError", "ValidationError"],
    "evaluation": [
        "EvalReport", "average_precision", "evaluate_run", "fn_image_flags", "iou",
        "map_with_fn_accounting",
    ],
    "profiles": ["flat_profile", "stage1_profile", "stage2_profiles"],
    "router": ["RoutingConfig", "RoutingTrace", "compare_tree_vs_flat", "route_v1", "route_v2"],
}

CASCADE_LAYERS = ("modcascade.detector", "modcascade._ziggurat", "modcascade.router",
                  "modcascade.evaluation", "modcascade._kernels", "modcascade.experiment")


def fresh(code: str, cwd: Path | None = None):
    """Run ``code`` in a new interpreter that imports this checkout's
    package; returns the JSON value of its last stdout line."""
    src = str(Path(modcascade.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n" + code],
        env={**os.environ, "PYTHONPATH": path}, cwd=cwd,
        check=True, capture_output=True, text=True, timeout=60,
    )
    return json.loads(proc.stdout.splitlines()[-1])


LOADED = (
    "print(json.dumps([sorted(m for m in sys.modules if m.startswith('modcascade.')),"
    " 'numpy' in sys.modules]))"
)


class TestColdStart:
    def test_import_loads_no_submodule_and_no_numpy(self):
        assert fresh("import modcascade\n" + LOADED) == [[], False]

    def test_load_dataset_loads_core_and_errors_only(self, tmp_path, taxonomy):
        path = tmp_path / "dataset.json"
        path.write_text(json.dumps({"taxonomy": taxonomy.to_json(), "images": []}))
        code = f"import modcascade\nmodcascade.load_dataset({str(path)!r})\n" + LOADED
        assert fresh(code) == [["modcascade.core", "modcascade.errors"], False]

    def test_errormodel_command_loads_no_cascade_layer(self, tmp_path):
        model = {
            "priors": {"c0": 0.5, "c1": 0.5},
            "conditionals": {"c0": [1.0, 0.0], "c1": [0.0, 1.0]},
            "weights": {"c0": [1.0, 1.0], "c1": [1.0, 1.0]},
        }
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "em.json").write_text(json.dumps({"model": "model.json", "pair": ["c0", "c1"]}))
        code = (
            "from modcascade.cli import main\n"
            "assert main(['errormodel', '--config', 'em.json', '--out', 'out']) == 0\n" + LOADED
        )
        loaded, _ = fresh(code, cwd=tmp_path)
        assert (tmp_path / "out" / "curves.csv").is_file()
        assert "modcascade.errormodel" in loaded
        assert not set(CASCADE_LAYERS) & set(loaded)

    def test_submodules_resolve_after_a_bare_import(self):
        code = (
            "import modcascade\n"
            f"names = {sorted(EXPORTS)!r}\n"
            "print(json.dumps([getattr(modcascade, n) is sys.modules['modcascade.' + n]"
            " for n in names]))"
        )
        assert fresh(code) == [True] * len(EXPORTS)


class TestExportTable:
    def test_all_is_the_eagerly_imported_names(self):
        names = [n for names in EXPORTS.values() for n in names]
        assert len(names) == len(set(names)) == 41
        assert sorted(modcascade.__all__) == sorted(names)

    def test_each_name_is_its_home_module_object(self):
        for module, names in EXPORTS.items():
            home = importlib.import_module(f"modcascade.{module}")
            for name in names:
                assert getattr(modcascade, name) is getattr(home, name), name
                assert name in vars(modcascade), f"{name} is resolved again on every use"

    def test_star_import_binds_exactly_all(self):
        namespace = {}
        exec("from modcascade import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(modcascade.__all__)

    def test_dir_lists_every_exported_name(self):
        assert set(modcascade.__all__) <= set(dir(modcascade))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            modcascade.no_such_name
