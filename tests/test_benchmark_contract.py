"""What the benchmark under perfbench/ relies on from the package.

The benchmark imports every layer module it traces and records
``backend_name()``; a refactor that renames either breaks it silently
or at run time, so these checks keep that contract visible to the suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import modcascade

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


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
