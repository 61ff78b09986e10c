"""Smoke test of the benchmark: one tiny run of each workload, both modes.

    python3 -m pytest perfbench/smoke.py

The file name keeps it out of the default test collection; it runs the
benchmark as a user would, in a subprocess, and checks what it prints.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int) -> tuple[list[str], dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return lines, json.loads(lines[-1])


def printed(lines: list[str], name: str, unit: str) -> bool:
    return any(line.split()[:1] == [name] and line.split()[2] == unit
               for line in lines if len(line.split()) >= 3)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    lines, result = bench(workload, 0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    for metric in SPEC["end_to_end"]:
        assert printed(lines, metric["name"], metric["unit"]), metric["name"]
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert result["metrics"][metric["name"]]["value"] > 0
    assert printed(lines, "failed_ratio", "1")
    assert any(line.startswith("failed_ratio") and float(line.split()[1]) == 0
               for line in lines)
    assert any(line.startswith("python=") and "nproc=" in line for line in lines)
    assert any(line.startswith("load_after=") for line in lines)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(workload):
    lines, result = bench(workload, 1)
    assert result["correct"] and result["failed"] == 0
    names = [m["name"] for m in SPEC["per_layer"]]
    assert sorted(result["metrics"]) == sorted(names)
    for metric in SPEC["per_layer"]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_bare_directory_fails(tmp_path):
    """Without the sources beside it the benchmark exits non-zero, printing no result."""
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
