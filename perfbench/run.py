#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of ``modcascade run`` and ``modcascade errormodel``.

    python3 perfbench/run.py --workload cascade_v2_sequences --seed 1 --seconds 30 --trace 0

Run from anywhere inside a source checkout; the program is imported from
the checkout's ``src`` directory and nothing is installed. The benchmark:

1. writes the workload's inputs from ``--seed`` (outside every timed region);
2. times ``setup_s``: ``import modcascade`` in a fresh interpreter plus one
   call to the workload's input loader, median of several interpreters;
3. for ``cascade_v1_crowded``, runs a ``workers`` 1 reference once;
4. with ``--trace 1``, makes one traced run (``perfbench/tracing.py``) and
   derives per-layer self times and counters from its spans;
5. runs ``python -m modcascade.cli`` as a subprocess, closed loop with one
   client, for ``--seconds`` seconds (at least 3 runs), and reports medians.

Every invocation is checked: exit code 0, every output present, output
sha256 equal across all invocations of the run (and the workers-1
reference), equal to the digests recorded at the default seed, and the
workload's own check. A failed check counts the invocation as failed.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0`` and
the per-layer metrics with ``--trace 1``. The line before it records nproc,
the Python and numpy versions, ``modcascade.backend_name()``, every timed
sample, the output digests and ``failure_rate`` (failed / attempted). Work
files go to ``.perfbench/`` at the checkout root; the traced run's spans
are kept there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = 9
MIN_SAMPLES = 3
# every child is killed past this point, so the benchmark ends within 180 s
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "core.load_dataset.self_s": "s",
    "core.images": "count",
    "core.objects": "count",
    "detector.detect.self_s": "s",
    "detector.detect.calls": "count",
    "detector.detect.us_per_call": "us",
    "detector.detect.calls.baseline": "count",
    "detector.detect.calls.stage1": "count",
    "detector.detect.calls.stage2": "count",
    "detector.detections": "count",
    "router.route.self_s": "s",
    "router.stage1_inferences": "count",
    "router.stage2_inferences": "count",
    "router.stage2_useful_ratio": "ratio",
    "router.v2_recovered_images": "count",
    "router.fn_images": "count",
    "evaluation.evaluate_run.self_s": "s",
    "evaluation.evaluate_run.calls": "count",
    "evaluation.match_detections.self_s": "s",
    "evaluation.match_detections.calls": "count",
    "evaluation.match_detections.us_per_call": "us",
    "evaluation.iou_pairs": "count",
    "evaluation.average_precision.self_s": "s",
    "evaluation.average_precision.calls": "count",
    "evaluation.ap_records": "count",
    "kernels.iou_matrix.self_s": "s",
    "kernels.greedy_match.self_s": "s",
    "reporting.dumps_canonical.self_s": "s",
    "reporting.report_bytes": "bytes",
    "reporting.mb_per_s": "MB/s",
    "errormodel.model_file_to_parts.self_s": "s",
    "errormodel.bayes_error.self_s": "s",
    "errormodel.pdf_curves.self_s": "s",
    "errormodel.features": "count",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.remainder_s": "s",
    "trace.overhead_s": "s",
}


# span count field -> per-layer metric that sums it
COUNT_METRIC = {
    "images": "core.images",
    "objects": "core.objects",
    "detections": "detector.detections",
    "pairs": "evaluation.iou_pairs",
    "records": "evaluation.ap_records",
    "bytes": "reporting.report_bytes",
    "features": "errormodel.features",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Invocation:
    wall_s: float
    rss_mb: float
    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    stdout: str = ""


class Runner:
    """Spawns children, checks their outputs and counts failures."""

    def __init__(self, workload, prep, env: dict, deadline: float, recorded: dict | None):
        self.workload = workload
        self.prep = prep
        self.env = env
        self.deadline = deadline
        self.expected = recorded  # digests every invocation must match
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def spawn(self, cmd: list[str], stdout_path: Path) -> tuple[float, int, float]:
        """Run one child to exit; returns (wall s, exit code, peak RSS MB)."""
        timeout = self.deadline - time.perf_counter()
        if timeout <= 0:
            raise BenchmarkError("time limit reached")
        with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".err"), "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=self.env, stdout=out, stderr=err)
            timer = threading.Timer(timeout, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                wall = time.perf_counter() - start
            finally:
                timer.cancel()
                timer.join()
            proc.returncode = os.waitstatus_to_exitcode(status)
        return wall, proc.returncode, usage.ru_maxrss / 1024.0

    def invoke(self, cmd: list[str], out: Path) -> Invocation:
        """One checked invocation writing into ``out``."""
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        log = out.parent / f"{out.name}.log"
        wall, code, rss = self.spawn(cmd, log)
        inv = Invocation(wall, rss, stdout=log.read_text(errors="replace"))
        if code != 0:
            err = log.with_suffix(".err").read_text(errors="replace").strip().splitlines()
            inv.problems.append(f"exit {code}: {err[-1] if err else ''}")
        else:
            inv.digests, problems = check_outputs(self.workload, self.prep, out, self.expected)
            inv.problems.extend(problems)
            if self.expected is None and not problems:
                self.expected = inv.digests
        self.attempted += 1
        if inv.problems:
            self.failed += 1
            self.problems.extend(inv.problems)
        return inv


def check_outputs(workload, prep, out: Path, expected: dict | None) -> tuple[dict, list[str]]:
    """Digests of one invocation's outputs and every problem found with them."""
    digests, problems = {}, []
    for name in prep.outputs:
        path = out / name
        if not path.is_file():
            problems.append(f"missing output {name}")
            continue
        digests[name] = hashlib.sha256(path.read_bytes()).hexdigest()
        want = (expected or {}).get(name)
        if want is not None and digests[name] != want:
            problems.append(f"{name} sha256 {digests[name][:12]} != expected {want[:12]}")
    if not problems:
        try:
            problems.extend(workload.check(prep, out))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
    return digests, problems


def setup_time(runner: Runner, prep, work: Path) -> float:
    """Median of fresh-interpreter import + one input-loader call."""
    code = (
        "import time\n"
        "t0 = time.perf_counter()\n"
        "import modcascade\n"
        f"{prep.loader}\n"
        "print(time.perf_counter() - t0)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        log = work / "setup.log"
        _, rc, _ = runner.spawn([sys.executable, "-c", code], log)
        if rc != 0:
            raise BenchmarkError(f"setup child failed: {log.with_suffix('.err').read_text()[-500:]}")
        times.append(float(log.read_text().split()[-1]))
    return statistics.median(times)


def traced_run(runner: Runner, prep, work: Path, run_id: str) -> tuple[Invocation, list]:
    """The traced run: ``cli.main`` called in a fresh interpreter with every
    layer wrapped. Returns it, timed without the span dump, with its spans."""
    spans_path = work / "spans.json"
    cmd = [sys.executable, str(HERE / "tracing.py"), "--spans", str(spans_path),
           "--run-id", run_id, "--"]
    inv = runner.invoke(cmd + prep.argv + ["--out", str(work / "traced_out")], work / "traced_out")
    if inv.problems:
        raise BenchmarkError(f"traced run failed: {inv.problems}")
    doc = json.loads(spans_path.read_text())
    inv.wall_s -= json.loads(inv.stdout.strip().splitlines()[-1])["dump_s"]
    return inv, doc["spans"]


def layer_metrics(spans: list, traced: Invocation, untraced_wall: float, router: dict) -> dict:
    from tracing import SELF_METRIC, self_times

    metrics = {name: 0 if unit in ("count", "bytes") else 0.0 for name, unit in PER_LAYER_UNITS.items()}
    own = self_times(spans)
    for name, seconds in own.items():
        metrics[SELF_METRIC[name]] += seconds
    calls: dict[str, int] = {}
    for _, name, _, _, _, _, _, counts in spans:
        calls[name] = calls.get(name, 0) + 1
        for key, value in (counts or {}).items():
            if key == "role":
                metrics[f"detector.detect.calls.{value}"] += 1
            else:
                metrics[COUNT_METRIC[key]] += value
    for fn in ("detector.detect", "evaluation.evaluate_run", "evaluation.match_detections",
               "evaluation.average_precision"):
        metrics[f"{fn}.calls"] = calls.get(fn, 0)
    for fn in ("detector.detect", "evaluation.match_detections"):
        if calls.get(fn):
            metrics[f"{fn}.us_per_call"] = metrics[f"{fn}.self_s"] / calls[fn] * 1e6
    if metrics["reporting.dumps_canonical.self_s"] > 0:
        metrics["reporting.mb_per_s"] = (
            metrics["reporting.report_bytes"] / 1e6 / metrics["reporting.dumps_canonical.self_s"]
        )
    metrics.update(router)
    metrics["trace.wall_s"] = traced.wall_s
    metrics["trace.remainder_s"] = traced.wall_s - sum(own.values())
    metrics["trace.overhead_s"] = traced.wall_s - untraced_wall
    return metrics


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    # numpy's BLAS pool would add threads beyond the router's workers
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run(args) -> tuple[dict, dict]:
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    if not (SRC / "modcascade" / "__init__.py").is_file():
        raise BenchmarkError(f"no modcascade sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import numpy
    import modcascade
    from workloads import DEFAULT_SEED, RECORDED_SHA256, WORKLOADS, router_counters

    if Path(modcascade.__file__).resolve().parent != (SRC / "modcascade").resolve():
        raise BenchmarkError(f"imported modcascade from {modcascade.__file__}, not {SRC}")
    if args.workload not in WORKLOADS:
        raise BenchmarkError(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    workers = min(2, nproc)
    env = child_env()

    work = ROOT / ".perfbench" / workload.name
    shutil.rmtree(work, ignore_errors=True)
    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    prep = workload.prepare(inputs, args.seed, args.scale, env, workers)
    recorded = None
    if args.seed == DEFAULT_SEED and args.scale == 1.0:
        recorded = RECORDED_SHA256[workload.name]
    runner = Runner(workload, prep, env, deadline, recorded)
    setup_s = setup_time(runner, prep, work)

    cli = [sys.executable, "-m", "modcascade.cli"]
    if prep.reference_argv:
        runner.invoke(cli + prep.reference_argv + ["--out", str(work / "ref_out")], work / "ref_out")
    if args.trace:
        traced, spans = traced_run(runner, prep, work, f"{workload.name}-seed{args.seed}")

    walls, rss = [], []
    loop_start = time.perf_counter()
    timed = 0
    while True:
        out = work / "out"
        inv = runner.invoke(cli + prep.argv + ["--out", str(out)], out)
        timed += 1
        if not inv.problems:
            walls.append(inv.wall_s)
            rss.append(inv.rss_mb)
        elapsed = time.perf_counter() - loop_start
        if timed >= MIN_SAMPLES and elapsed + statistics.median(walls or [inv.wall_s]) > args.seconds:
            break
    if not walls:
        raise BenchmarkError(f"no invocation succeeded: {runner.problems[:3]}")
    wall_s = statistics.median(walls)

    if args.trace:
        router = {}
        if prep.dataset is not None:
            report = json.loads((work / "traced_out" / "report.json").read_text())
            router = router_counters(report, json.loads(prep.dataset.read_text()))
        metrics = layer_metrics(spans, traced, wall_s, router)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "wall_s": wall_s,
            "items_per_s": prep.items / wall_s,
            "setup_s": setup_s,
            "peak_rss_mb": statistics.median(rss),
        }
        units = END_TO_END_UNITS

    env_info = {
        "workload": workload.name,
        "seed": args.seed,
        "scale": args.scale,
        "nproc": nproc,
        "workers": workers,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "backend": modcascade.backend_name(),
        "samples": len(walls),
        "walls_s": walls,
        "failure_rate": runner.failed / runner.attempted,
        "problems": runner.problems[:10],
        "digests": runner.expected,
        "spans": str((work / "spans.json").relative_to(ROOT)) if args.trace else None,
        "benchmark_s": time.perf_counter() - started,
    }
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    (work / "result.json").write_text(json.dumps({"env": env_info, **result}, indent=1))
    return env_info, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size factor; below 1 only for the self-test")
    args = parser.parse_args(argv)
    try:
        env_info, result = run(args)
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"env": env_info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
