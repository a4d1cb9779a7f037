"""The README's CLI walkthrough, run as written: its Python block writes
the configs, then its shell block's ``modcascade`` commands run through
``cli.main``; so does its ``errormodel`` command, on the quoted config
and the example model file. A README that names deleted API, or quotes
figures this setup no longer gives, fails here."""

import dataclasses
import importlib
import json
import pkgutil
import re
import shlex
from pathlib import Path

import modcascade
from modcascade.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def _walkthrough_blocks() -> tuple[str, list[list[str]]]:
    text = README.read_text(encoding="utf-8")
    section = text[text.index("## CLI walkthrough") :]
    python = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    shell = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    commands = [
        shlex.split(line.split("#")[0])[1:]
        for line in shell.splitlines()
        if line.startswith("modcascade ")
    ]
    return python, commands


def test_readme_walkthrough(tmp_path, monkeypatch):
    python, commands = _walkthrough_blocks()
    assert [c[0] for c in commands] == ["synth", "run"]
    monkeypatch.chdir(tmp_path)
    exec(compile(python, str(README), "exec"), {})
    for argv in commands:
        assert main(argv) == 0
    report = json.loads((tmp_path / "report.json").read_text())
    assert set(report) == {"advantage", "baseline", "modular", "trace", "tree_vs_flat"}
    # the README's "representative report from this exact setup"
    baseline, modular = report["baseline"], report["modular"]
    assert (round(baseline["map"], 3), round(baseline["classification_error"], 3)) == (0.873, 0.125)
    assert (round(modular["map"], 3), round(modular["classification_error"], 3)) == (0.941, 0.043)
    assert round(modular["map_stage2_routed"], 3) == 0.976
    assert modular["routed_positive_images"] == 964
    assert round(modular["map_fn_adjusted"], 3) == 0.941
    assert round(report["tree_vs_flat"]["ratio"], 1) == 2.6
    assert report["advantage"]["advantage"] is True


def _errormodel_example() -> tuple[list[str], dict, dict]:
    """The README's ``modcascade errormodel`` command, its quoted
    ``errormodel.json`` and the model file example of "Error-model file"."""
    text = README.read_text(encoding="utf-8")
    section = text[text.index("The analytic model runs from a model file") :]
    shell = re.search(r"```bash\n(.*?)```", section, re.S).group(1)
    [argv] = [
        shlex.split(line.split("#")[0])[1:]
        for line in shell.splitlines()
        if line.startswith("modcascade ")
    ]
    config = re.search(r"with `errormodel\.json` like `(\{.*?\})`", section, re.S).group(1)
    formats = text[text.index("**Error-model file**") :]
    model = re.search(r"```json\n(.*?)```", formats, re.S).group(1)
    return argv, json.loads(config), json.loads(model)


def test_readme_errormodel_example(tmp_path, monkeypatch):
    argv, config, model = _errormodel_example()
    assert argv[:3] == ["errormodel", "--config", "errormodel.json"]
    assert model["capacity"] == {"supK": 120}
    monkeypatch.chdir(tmp_path)
    (tmp_path / "errormodel.json").write_text(json.dumps(config))
    (tmp_path / config["model"]).write_text(json.dumps(model))
    assert main(argv) == 0
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert set(summary) == {"bayes_error", "feature_count", "over_capacity"}
    assert summary["over_capacity"] is False


# file names are written with a dot too, but are not API
_FILE_SUFFIXES = (".json", ".py", ".md", ".csv")


def _readme_dotted_names() -> list[str]:
    """Every backticked name with a dot in README.md, outside code
    blocks; a call's arguments are dropped (`f(x)` names `f`)."""
    text = re.sub(r"```.*?```", "", README.read_text(encoding="utf-8"), flags=re.S)
    names = [
        m.group(1)
        for m in re.finditer(r"`([A-Za-z_]\w*(?:\.\w+)+)[^`]*`", text)
    ]
    return [n for n in names if not n.endswith(_FILE_SUFFIXES)]


def _api_namespace() -> dict:
    """modcascade, its modules and its public classes, by name."""
    modules = {
        m.name: importlib.import_module(f"modcascade.{m.name}")
        for m in pkgutil.iter_modules(modcascade.__path__)
    }
    classes = {
        name: obj
        for module in modules.values()
        for name, obj in vars(module).items()
        if isinstance(obj, type)
        and not name.startswith("_")
        and obj.__module__.startswith("modcascade")
    }
    return {"modcascade": modcascade, **modules, **classes}


def _resolves(dotted: str, namespace: dict) -> bool:
    """Whether ``dotted`` is a name of ``namespace`` followed by
    attributes or, last, a dataclass field."""
    head, *attrs = dotted.split(".")
    obj = namespace.get(head)
    for k, attr in enumerate(attrs):
        if obj is None:
            return False
        if dataclasses.is_dataclass(obj) and attr in {f.name for f in dataclasses.fields(obj)}:
            return k == len(attrs) - 1
        obj = getattr(obj, attr, None)
    return obj is not None


def test_readme_names_only_existing_api():
    names = _readme_dotted_names()
    assert names
    namespace = _api_namespace()
    assert [n for n in names if not _resolves(n, namespace)] == []
