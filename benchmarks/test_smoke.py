"""Smoke test of the benchmark harness at tiny sizes.

Run from the root of a checkout: python -m pytest benchmarks/test_smoke.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def _run(root, *args):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "run.py"), *args],
        capture_output=True, text=True, cwd=root, timeout=600,
    )


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_appears_with_its_unit(workload, trace, section):
    proc = _run(
        BENCH.parent, "--workload", workload, "--seed", "7", "--seconds", "0",
        "--trace", str(trace), "--tiny",
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def test_checkout_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", ".work")
    shutil.copytree(BENCH, tmp_path / "benchmarks", ignore=ignore)
    proc = _run(tmp_path, "--workload", "descent", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
