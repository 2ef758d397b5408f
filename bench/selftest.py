#!/usr/bin/env python3
"""Harness self-test at toy sizes.

    python3 bench/selftest.py

For every workload, each in a fresh process: one untraced run must print
every end-to-end metric of ``BENCHMARK.json`` with its unit, and two
traced runs with one seed must print every per-layer metric with its
unit and the same ``calls`` counts.  The output checks are reported but
not required to pass: toy shapes are too small for the quality checks.
Exits 1 if any harness check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from spans import metric_names

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 3


def run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0.5", "--trace", str(trace), "--size", "toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def unit_problems(result: dict, declared: dict[str, str], positive: bool) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if set(result["metrics"]) != set(declared):
        problems.append(f"metric names differ: {sorted(set(result['metrics']) ^ set(declared))}")
    for name, unit in declared.items():
        got = result["metrics"].get(name, {})
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, expected {unit!r}")
        value = got.get("value")
        if not isinstance(value, (int, float)) or (positive and not value > 0):
            problems.append(f"{name}: value {value!r}")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    problems = []
    expected_layer = metric_names() + ["trace.overhead_s"]
    if list(per_layer) != expected_layer:
        problems.append("BENCHMARK.json per_layer does not list spans.metric_names()")
    for workload in (w["name"] for w in spec["workloads"]):
        plain = run(workload, 0)
        problems += [f"{workload}: {p}" for p in unit_problems(plain, end_to_end, True)]
        first, second = run(workload, 1), run(workload, 1)
        for traced in (first, second):
            problems += [f"{workload} traced: {p}"
                         for p in unit_problems(traced, per_layer, False)]
        calls = [{k: v["value"] for k, v in r["metrics"].items() if k.endswith(".calls")}
                 for r in (first, second)]
        if calls[0] != calls[1]:
            problems.append(f"{workload}: calls differ between two traced runs")
        print(f"{workload}: untraced checks {plain['attempted'] - plain['failed']}"
              f"/{plain['attempted']} passed, {sum(calls[0].values())} traced calls")
    for p in problems:
        print("FAIL", p)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
