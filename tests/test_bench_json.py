import importlib.util
import json
import subprocess
import sys
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_json.py"
spec = importlib.util.spec_from_file_location("bench_json", TOOL)
bench_json = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_json)


def test_rows_equal_the_run_output(tmp_path):
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(TOOL), str(out), "--workload", "search",
                           "--tiny", "--seconds", "0.1"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    (row,) = json.loads(out.read_text())["rows"]
    last = json.loads(lines[-1])
    assert {key: row[key] for key in last} == last and last["correct"]
    assert (row["label"], row["round"], row["workload"]) == ("change", 0, "search")
    assert row["header"]["workload"] == "search" and row["header"]["size"] == "tiny"
    assert row["header"]["seconds"] == 0.1 and row["header"]["nproc"] >= 1
    assert row["header"]["seed"] == 1
    assert f"machine speed {row['machine_speed']:.3f}: " in done.stdout
    assert f"load_after={row['load_after']:.2f}" in lines


def test_seed_reaches_every_run(tmp_path):
    out = tmp_path / "BENCH.json"
    done = subprocess.run([sys.executable, str(TOOL), str(out), "--workload", "reduce-sweep",
                           "--tiny", "--seconds", "0.1", "--seed", "3", "--rounds", "2"],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    rows = json.loads(out.read_text())["rows"]
    assert [(row["round"], row["header"]["seed"], row["correct"]) for row in rows] == [
        (0, 3, True), (1, 3, True)]


def test_parse_reads_a_traced_loaded_run():
    stdout = "\n".join([
        "perfbench workload=search seed=3 seconds=1 trace=1 size=tiny",
        "python=3.11.7 nproc=2 git=unknown src=0123456789ab load_before=2.50",
        "load_after=2.10 LOADED: load average exceeded nproc",
        "trace.overhead_ratio                                 1.3000 1",
        '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}'])
    assert bench_json.parse(stdout) == {
        "header": {"workload": "search", "seed": 3, "seconds": 1, "trace": 1,
                   "size": "tiny", "python": "3.11.7", "nproc": 2, "git": "unknown",
                   "src": "0123456789ab", "load_before": 2.5},
        "machine_speed": None, "load_after": 2.1, "loaded": True,
        "correct": True, "attempted": 4, "failed": 0, "metrics": {}}
