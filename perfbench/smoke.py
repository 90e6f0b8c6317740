#!/usr/bin/env python3
"""Smoke test for the benchmark runner.

    python3 perfbench/smoke.py

Runs every workload at tiny size with the known-defect ops added, once
untraced and once traced, and checks that

* each run exits 0 and ends with the result object, naming every metric
  BENCHMARK.json lists for that mode with its unit;
* the printed table names every end-to-end metric, ``fail_share`` and
  ``dc_gap_max`` included;
* the known-defect ops fail on geometric-deep and sweep-oracle and are counted in
  ``fail_share`` without crashing the runner, while uniform-large fails
  none;
* in the traced run, the layers' self times account for the ops' wall time;
* in a directory holding only BENCHMARK.json and perfbench/, the runner
  exits non-zero and prints no result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
DEFECTIVE = {"geometric-deep", "sweep-oracle"}


def run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = SPEC["command"] + ["--workload", workload, "--seed", "1", "--seconds", "1",
                             "--trace", str(trace), "--size", "tiny", "--with-defects"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_run(workload: str, trace: int) -> list[str]:
    errors = []
    proc = run(workload, trace)
    if proc.returncode != 0:
        return [f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr[-2000:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        errors.append(f"{workload} trace={trace}: result keys {sorted(result)}")
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
            errors.append(f"{workload} trace={trace}: metric {m['name']} missing or without unit {m['unit']}")
    if set(result["metrics"]) != {m["name"] for m in wanted}:
        errors.append(f"{workload} trace={trace}: unexpected metrics {sorted(result['metrics'])}")

    if (result["failed"] > 0) != (workload in DEFECTIVE):
        errors.append(f"{workload} trace={trace}: {result['failed']} failed ops")
    if result["correct"] != (result["failed"] == 0):
        errors.append(f"{workload} trace={trace}: correct={result['correct']} with {result['failed']} failed")
    if not trace:
        table = {line.split()[0]: line.split()[1:] for line in lines[1:-1] if line and not line.startswith("(")}
        for name in [m["name"] for m in SPEC["end_to_end"]] + ["fail_share", "dc_gap_max"]:
            if name not in table:
                errors.append(f"{workload}: table line for {name} missing")
        share = float(table["fail_share"][0])
        if (share > 0) != (workload in DEFECTIVE):
            errors.append(f"{workload}: fail_share {share}")
    else:
        unaccounted = result["metrics"]["trace.unaccounted_share"]["value"]
        if not 0 <= unaccounted < 0.05:
            errors.append(f"{workload}: self times leave {unaccounted:.1%} of op time unaccounted")
    return errors


def check_bare_directory() -> list[str]:
    """Without src/rectpart the runner must fail cleanly, printing no result."""
    bare = HERE / "out" / f"bare-{os.getpid()}"
    try:
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = run("sweep-oracle", 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-300:]!r}"]
    return []


def main() -> int:
    errors = check_bare_directory()
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            found = check_run(workload, trace)
            errors += found
            print(f"{workload} trace={trace}: {'FAILED' if found else 'ok'}", flush=True)
    for e in errors:
        print(e, file=sys.stderr)
    print("smoke: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
