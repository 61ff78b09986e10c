#!/usr/bin/env python3
"""Record golden.json: the hash of every query's exit code and output.

    python3 perfbench/record_golden.py

Runs each workload's full query list once at the default seed, checks every
answer with the oracle, and stores sha256("<exit code>\\n<stdout>") per query
key.  Record it only from a commit whose CLI output is the reference: later
runs at the default seed fail any query whose output differs by one byte.
"""

from __future__ import annotations

import json
import shutil
import sys

import run
import workloads


def main() -> int:
    if not run.use_checkout_sources():
        print("record_golden: no chaincover sources", file=sys.stderr)
        return 2
    golden = {}
    for name in sorted(workloads.WORKLOADS):
        out = run.OUT / f"golden-{name}"
        out.mkdir(parents=True, exist_ok=True)
        try:
            _, insts = run.setup(name, run.DEFAULT_SEED, "full", out)
            queries, order = run.make_queries(name, run.DEFAULT_SEED, "full", insts)
            results, _ = run.one_pass(queries, order)
            failures = run.verify(queries, results, None)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        for qi, reason in failures.items():
            print(f"record_golden: {queries[qi].key}: {reason}", file=sys.stderr)
        if failures:
            return 1
        golden[name] = {queries[qi].key: run.answer_hash(rc, stdout)
                        for qi, rc, stdout, _, _ in sorted(results)}
        print(f"{name}: {len(golden[name])} queries")
    run.GOLDEN.write_text(json.dumps({"seed": run.DEFAULT_SEED, "workloads": golden},
                                     indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
