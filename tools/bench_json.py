"""Benchmark rows of one or more checkouts in one JSON file.

    python tools/bench_json.py OUT.json [--checkout LABEL=DIR ...]
        [--workload NAME ...] [--rounds R] [--seconds S] [--tiny]

Runs ``perfbench/run.py`` of each checkout DIR (default: ``change=`` this
one) on each workload (default: every workload of ``BENCHMARK.json``), at
the benchmark's default seed.  A round runs every workload once in every
checkout, the checkouts taken in turn and in reverse order every other
round, so ``--checkout parent=... --checkout change=.`` gives interleaved
A/B pairs.  Each run's stdout is passed through.  OUT.json gets one row per
run: its label, round and workload; the fields of the two header lines
(``perfbench workload=...`` and ``python=... git=... src=...
load_before=...``); the machine speed; ``load_after`` and whether the run
was ``LOADED``; and the run's final JSON object (``correct``,
``attempted``, ``failed``, ``metrics``) as printed.  A run that exits
non-zero stops the tool with its exit code, before OUT.json is written.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEED = re.compile(r"machine speed ([0-9.]+):")
# The numeric header fields; the rest (git SHA, source digest...) stay text.
_NUMBERS = {"seed": int, "seconds": float, "trace": int, "nproc": int,
            "load_before": float}


def parse(stdout: str) -> dict:
    """The row fields of one ``perfbench/run.py`` run's stdout."""
    lines = stdout.splitlines()
    header = {}
    for line in lines[:2]:
        header.update((key, _NUMBERS.get(key, str)(value)) for key, _, value in
                      (field.partition("=") for field in line.split() if "=" in field))
    row = {"header": header, "machine_speed": None}
    for line in lines:
        speed = _SPEED.match(line)
        if speed:
            row["machine_speed"] = float(speed[1])
        elif line.startswith("load_after="):
            row["load_after"] = float(line.split()[0].partition("=")[2])
            row["loaded"] = "LOADED" in line
    row.update(json.loads(lines[-1]))
    return row


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("out", type=Path)
    ap.add_argument("--checkout", action="append", metavar="LABEL=DIR",
                    help="a checkout to run, under a label (repeatable)")
    ap.add_argument("--workload", action="append")
    ap.add_argument("--rounds", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=8.0)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    checkouts = [(label, Path(path)) for label, _, path in
                 (c.partition("=") for c in args.checkout or [f"change={ROOT}"])]
    workloads = args.workload or [w["name"] for w in
                                  json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    rows = []
    for rnd in range(args.rounds):
        for workload in workloads:
            for label, path in checkouts[::-1] if rnd % 2 else checkouts:
                cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
                       "--seconds", f"{args.seconds:g}"]
                done = subprocess.run(cmd + ["--tiny"] * args.tiny, cwd=path,
                                      capture_output=True, text=True)
                sys.stdout.write(done.stdout)
                sys.stderr.write(done.stderr)
                if done.returncode:
                    return done.returncode
                rows.append({"label": label, "round": rnd, "workload": workload,
                             **parse(done.stdout)})
    args.out.write_text(json.dumps({"rows": rows}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
