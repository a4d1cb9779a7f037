#!/usr/bin/env python3
"""Smoke self-test of the benchmark at tiny input sizes.

    python3 perfbench/selftest.py

Checks that:
- every workload, traced and untraced, prints each metric BENCHMARK.json
  declares, with its declared unit, and no failed invocation;
- in the traced run, self times plus the remainder equal the traced wall time;
- a report with one byte flipped, and a curves file whose min terms no
  longer sum to the Bayes error, count as failures;
- in a directory holding only BENCHMARK.json and the benchmark, the
  benchmark exits non-zero without printing a result.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_benchmark(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def check_metrics(spec: dict, failures: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run_benchmark(
                ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--scale", SCALE,
            )
            where = f"{workload} --trace {trace}"
            if proc.returncode != 0:
                failures.append(f"{where}: exit {proc.returncode}: {proc.stderr[-300:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                failures.append(f"{where}: {result['failed']}/{result['attempted']} failed")
            metrics = result["metrics"]
            declared = {m["name"]: m["unit"] for m in spec[section]}
            if set(metrics) != set(declared):
                failures.append(f"{where}: metrics differ: {set(metrics) ^ set(declared)}")
            for name, unit in declared.items():
                got = metrics.get(name, {})
                if got.get("unit") != unit or not isinstance(got.get("value"), (int, float)):
                    failures.append(f"{where}: {name} printed as {got}, declared unit {unit}")
            if trace == "1":
                check_trace(workload, {k: v["value"] for k, v in metrics.items()}, where, failures)


def check_trace(workload: str, m: dict, where: str, failures: list[str]) -> None:
    own = sum(v for k, v in m.items() if k.endswith("self_s"))
    if not math.isclose(own + m["trace.remainder_s"], m["trace.wall_s"], abs_tol=1e-9):
        failures.append(f"{where}: self times + remainder {own} != traced wall time")
    if not workload.startswith("cascade"):
        return
    # every alias wrapped: the spans see each inference the report counts
    for spans_key, report_key in (
        ("detector.detect.calls.baseline", "core.images"),
        ("detector.detect.calls.stage1", "router.stage1_inferences"),
        ("detector.detect.calls.stage2", "router.stage2_inferences"),
    ):
        if m[spans_key] != m[report_key] or not m[spans_key]:
            failures.append(f"{where}: {spans_key} {m[spans_key]} != {report_key} {m[report_key]}")
    # per-thread stacks: a detect span never nests in another one
    doc = json.loads((ROOT / ".perfbench" / workload / "spans.json").read_text())
    names = {s[0]: s[1] for s in doc["spans"]}
    parents = {names.get(s[4]) for s in doc["spans"] if s[1] == "detector.detect"}
    if not parents <= {"cli.cmd_run", "router.route_v1", "router.route_v2"}:
        failures.append(f"{where}: detect spans nested under {parents}")


def check_corruption(failures: list[str]) -> None:
    work = ROOT / ".perfbench" / "selftest"
    shutil.rmtree(work, ignore_errors=True)
    env = bench.child_env()
    cli = [sys.executable, "-m", "modcascade.cli"]
    for name, target in (("cascade_v2_sequences", "report.json"), ("errormodel_wide", "curves.csv")):
        workload = WORKLOADS[name]
        inputs = work / name / "inputs"
        inputs.mkdir(parents=True)
        prep = workload.prepare(inputs, 5, float(SCALE), env, 1)
        runner = bench.Runner(workload, prep, env, bench.time.perf_counter() + 120, None)
        out = work / name / "out"
        good = runner.invoke(cli + prep.argv + ["--out", str(out)], out)
        if good.problems:
            failures.append(f"{name}: clean run failed: {good.problems}")
            continue
        # change the leading digit of the file's last field by one
        path = out / target
        data = bytearray(path.read_bytes())
        digits = [i for i, b in enumerate(data) if chr(b) in "12345678"]
        last_field = data.rfind(b",")
        data[next((i for i in digits if i > last_field), digits[0])] += 1
        path.write_bytes(bytes(data))
        _, problems = bench.check_outputs(workload, prep, out, runner.expected)
        if not problems:
            failures.append(f"{name}: {target} with one byte flipped passed the check")
        _, problems = bench.check_outputs(workload, prep, out, None)
        if name == "errormodel_wide" and not problems:
            failures.append(f"{name}: min terms off the Bayes error passed the check")
        # a digest mismatch is counted as a failed invocation
        runner.expected = {k: "0" * 64 for k in runner.expected}
        runner.invoke(cli + prep.argv + ["--out", str(out)], out)
        if runner.failed != 1 or runner.attempted != 2:
            failures.append(f"{name}: mismatch counted {runner.failed}/{runner.attempted} failed")


def check_bare_directory(failures: list[str]) -> None:
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(bare, "--workload", "cascade_v2_sequences", "--seed", "1",
                         "--seconds", "1", "--trace", "0")
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        failures.append(f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}")
    shutil.rmtree(bare)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_metrics(spec, failures)
    check_corruption(failures)
    check_bare_directory(failures)
    for f in failures:
        print(f"FAIL {f}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
