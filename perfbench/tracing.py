"""Timing spans around modcascade's layer functions, and self-time analysis.

Run as a script, this is the traced run of one workload: it wraps the
functions in ``TARGETS``, calls ``modcascade.cli.main`` in this process,
and writes every span to a JSON file when the call returns::

    python perfbench/tracing.py --spans spans.json -- run --config run.json --out out

The program's source is not touched. Each wrapper replaces the function
in every ``modcascade.*`` module that holds it, because ``cli`` and
``router`` import ``detect``, ``evaluate_run`` and the others by name.

A span is ``[id, name, start, end, parent, thread, run, counts]``. Each
thread keeps its own span stack. A span opened on a worker thread with an
empty stack takes as parent the innermost open span of the main thread:
the router's thread pool runs ``detect`` while ``route_v1``/``route_v2``
waits on it, so that span is the one that caused the work.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (module, function, self-time metric) for every function that opens a
# span. The span name is "<module>.<function>" with the leading
# underscore of _kernels dropped, so that it is a valid metric name.
TARGETS = (
    ("cli", "cmd_run", "cli.self_s"),
    ("cli", "cmd_errormodel", "cli.self_s"),
    ("core", "load_dataset", "core.load_dataset.self_s"),
    ("detector", "detect", "detector.detect.self_s"),
    ("router", "route_v1", "router.route.self_s"),
    ("router", "route_v2", "router.route.self_s"),
    ("evaluation", "evaluate_run", "evaluation.evaluate_run.self_s"),
    ("evaluation", "match_detections", "evaluation.match_detections.self_s"),
    ("evaluation", "average_precision", "evaluation.average_precision.self_s"),
    ("_kernels", "iou_matrix", "kernels.iou_matrix.self_s"),
    ("_kernels", "greedy_match", "kernels.greedy_match.self_s"),
    ("reporting", "dumps_canonical", "reporting.dumps_canonical.self_s"),
    ("errormodel", "model_file_to_parts", "errormodel.model_file_to_parts.self_s"),
    ("errormodel", "bayes_error", "errormodel.bayes_error.self_s"),
    ("errormodel", "pdf_curves", "errormodel.pdf_curves.self_s"),
)


def span_name(module: str, func: str) -> str:
    return f"{module.lstrip('_')}.{func}"


SELF_METRIC = {span_name(m, f): metric for m, f, metric in TARGETS}


def _counts(name: str, args, result, roles: dict) -> dict | None:
    """Work done by one call, recorded on its span."""
    if name == "core.load_dataset":
        return {"images": len(result.images), "objects": sum(len(i.objects) for i in result.images)}
    if name == "detector.detect":
        profile = args[0].profile
        role = roles.get(frozenset(profile.label_space)) if profile else None
        return {"detections": len(result), **({"role": role} if role else {})}
    if name == "evaluation.match_detections":
        return {"pairs": len(args[0]) * len(args[1])}
    if name == "evaluation.average_precision":
        return {"records": len(args[0])}
    if name == "reporting.dumps_canonical":
        return {"bytes": len(result.encode("utf-8"))}
    if name == "errormodel.model_file_to_parts":
        model = result[0]
        return {"features": model.n_features * len(model.classes)}
    return None


class Recorder:
    """In-memory span store with one span stack per thread."""

    def __init__(self, run_id: str, roles: dict):
        self.run_id = run_id
        self.roles = roles
        self.spans: list[list] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = self._main_stack[-1]
            else:
                parent = None
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            counts = _counts(name, args, result, self.roles)
            # list.append is atomic under the interpreter lock
            self.spans.append(
                [span_id, name, start, end, parent, threading.get_ident(), self.run_id, counts]
            )
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> int:
        """Wrap every target in every modcascade module; returns the alias count."""
        import importlib

        patched = 0
        for module, func, _ in TARGETS:
            home = importlib.import_module(f"modcascade.{module}")
            original = getattr(home, func, None)
            if original is None:
                continue  # layer function no longer exists
            wrapped = self.wrap(span_name(module, func), original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "modcascade" or mod_name.startswith("modcascade.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
                        patched += 1
        return patched


def self_times(spans: list[list]) -> dict[str, float]:
    """Self time per span name.

    A span's self time is the part of its interval that none of its
    open children cover. Where innermost spans of different threads
    overlap, their shared interval is split evenly between them, so the
    self times of all spans add up to the time some span was open.
    """
    index = {s[0]: k for k, s in enumerate(spans)}
    parent = [index.get(s[4]) if s[4] is not None else None for s in spans]
    events = []
    for k, s in enumerate(spans):
        events.append((s[2], 1, s[0], k))
        # ends at equal times close children (higher ids) first
        events.append((s[3], 0, -s[0], k))
    events.sort()
    own = [0.0] * len(spans)
    open_kids = [0] * len(spans)
    leaves: set[int] = set()
    last = events[0][0] if events else 0.0
    for t, is_start, _, k in events:
        if leaves:
            share = (t - last) / len(leaves)
            for j in leaves:
                own[j] += share
        last = t
        p = parent[k]
        if is_start:
            leaves.add(k)
            if p is not None:
                open_kids[p] += 1
                leaves.discard(p)
        else:
            leaves.discard(k)
            if p is not None:
                open_kids[p] -= 1
                if open_kids[p] == 0:
                    leaves.add(p)
    out: dict[str, float] = {}
    for k, s in enumerate(spans):
        out[s[1]] = out.get(s[1], 0.0) + own[k]
    return out


def _roles(cli_argv: list[str]) -> dict:
    """Detector role by label space, read from a run config."""
    if not cli_argv or cli_argv[0] != "run":
        return {}
    config = json.loads(Path(cli_argv[cli_argv.index("--config") + 1]).read_text())
    profiles = config["profiles"]
    roles = {frozenset(p["label_space"]): "stage2" for p in profiles["stage2"].values()}
    roles[frozenset(profiles["stage1"]["label_space"])] = "stage1"
    roles[frozenset(profiles["baseline"]["label_space"])] = "baseline"
    return roles


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans", required=True, help="where to write the spans")
    parser.add_argument("--run-id", default="traced")
    parser.add_argument("cli_argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli_argv = args.cli_argv[1:] if args.cli_argv[:1] == ["--"] else args.cli_argv

    import modcascade.cli

    recorder = Recorder(args.run_id, _roles(cli_argv))
    aliases = recorder.install()
    code = modcascade.cli.main(cli_argv)
    main_returned = time.perf_counter()
    doc = {"run": args.run_id, "exit_code": code, "spans": recorder.spans}
    Path(args.spans).write_text(json.dumps(doc, separators=(",", ":")))
    # time spent after main returned, so the caller can leave it out
    print(json.dumps({"aliases": aliases, "dump_s": time.perf_counter() - main_returned}))
    return code


if __name__ == "__main__":
    sys.exit(main())
