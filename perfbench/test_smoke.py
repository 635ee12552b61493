"""Smoke test of the benchmark at tiny sizes (``--tiny``).

Run from the repository root:

    python3 -m pytest -q perfbench

It checks that every metric named in BENCHMARK.json is printed with its
unit for every workload, that the traced self times add up to the
traced wall time, that traced counts repeat for a seed, and that the
benchmark refuses to run without the package sources.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Self times must sum to the wall time measured around cli.main within
# 2% plus 2 ms: the gap is the cost of the outermost wrapper itself.
SLACK_RELATIVE = 0.02
SLACK_ABSOLUTE_S = 0.002


def run_bench(workload: str, trace: int, seed: int = 5, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def assert_metrics(lines, result, spec_metrics):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in spec_metrics}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected
    for name, metric in result["metrics"].items():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], (int, float))
        assert any(re.match(rf"{re.escape(name)} = \S+ {re.escape(metric['unit'])}\b", line)
                   for line in lines), f"{name} not printed with its unit"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = parse(run_bench(workload, 0))
    assert_metrics(lines, result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert any(line.startswith("env {") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    lines, first = parse(run_bench(workload, 1))
    assert_metrics(lines, first, SPEC["per_layer"])

    trace_line = next(line for line in lines if line.startswith("trace: "))
    self_sum, wall = (float(x) for x in
                      re.search(r"self-time sum (\S+) s, traced wall (\S+) s", trace_line).groups())
    assert abs(wall - self_sum) <= SLACK_RELATIVE * wall + SLACK_ABSOLUTE_S

    _, second = parse(run_bench(workload, 1))
    count_names = [m["name"] for m in SPEC["per_layer"]
                   if m["unit"] in ("count", "bytes") or m["name"] == "harness.accept_ratio"]
    assert {n: first["metrics"][n]["value"] for n in count_names} == \
        {n: second["metrics"][n]["value"] for n in count_names}


def test_fails_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
