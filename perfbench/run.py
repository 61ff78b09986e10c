#!/usr/bin/env python3
"""chaincover benchmark: one workload, timed end to end through the CLI.

    python3 perfbench/run.py --workload cover-large --seed 1 --seconds 30 --trace 0

Each query is one in-process call of ``chaincover.cli.run([verb, file, ...,
"--json"])`` with its output captured: the path a CLI user takes (read,
parse, close, compute, format) without interpreter start-up.  One client
sends the next query when the previous one has answered (a closed loop) and
no other thread or process runs while timing.

``--trace 0`` times set-up and a loop of passes over the query list lasting
``--seconds`` seconds (at least one whole pass), and reports the end-to-end
metrics over each query's median latency, scaled to machine speed 1 (see
``Reference``).  ``--trace 1`` makes one untraced
and one traced pass over the whole query list and reports the per-layer
metrics, including the tracing overhead.  Either way every answer is checked by
``oracle`` after timing ends, and at the default seed compared byte for byte
with ``golden.json``.  The last line of standard output is one JSON object.
See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import bisect
import gc
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
SETUP_REPEATS = 3
# Cheap set-ups repeat beyond three, up to nine, until this many seconds.
SETUP_SECONDS = 2.0
# The machine-speed reference (see ``Reference``): its nominal time, how
# often the timed loop samples it between queries, and the half-width of the
# window of samples that gives the speed at one moment.
REFERENCE_S = 0.008
REFERENCE_EVERY_S = 0.25
REFERENCE_WINDOW_S = 2.5

import oracle  # noqa: E402  (benchmark-local modules, beside this file)
import tracer  # noqa: E402
import workloads  # noqa: E402


def use_checkout_sources() -> bool:
    """Put this checkout's ``src`` first on the import path, if it is there."""
    if not (SRC / "chaincover" / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(SRC))
    return True


def load_chaincover():
    """Import chaincover afresh from this checkout's ``src``."""
    for name in [m for m in sys.modules if m.split(".")[0] == "chaincover"]:
        del sys.modules[name]
    import chaincover
    import chaincover.cli
    if Path(chaincover.__file__).resolve().parent != SRC / "chaincover":
        raise ImportError(f"chaincover was imported from {chaincover.__file__}")
    return chaincover


def setup(workload: str, seed: int, size: str, out: Path, before_build=None):
    """Import chaincover and build the workload's files; returns (seconds, instances)."""
    build = workloads.WORKLOADS[workload][0]
    start = perf_counter()
    cc = load_chaincover()
    if before_build is not None:
        before_build()
    insts = build(cc.generators, out, seed, size)
    return perf_counter() - start, insts


def call(argv: list[str]) -> tuple[int | None, str, str, float]:
    """One CLI query: (exit code or None on a traceback, stdout, stderr, seconds)."""
    cli = sys.modules["chaincover.cli"]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        try:
            rc = cli.run(argv)
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        elapsed = perf_counter() - start
    return rc, out.getvalue(), err.getvalue(), elapsed


def one_pass(queries, order, on_query=None):
    results = []
    start = perf_counter()
    for i, qi in enumerate(order):
        if on_query is not None:
            on_query(i)
        results.append((qi, *call(queries[qi].argv)))
    return results, perf_counter() - start


def warm_up(queries) -> None:
    """One untimed call of each verb, on its cheapest-looking instance.

    The first call of a verb pays for cold code paths; without this the
    first sample of that verb would be slower than the rest.
    """
    first = {}
    for q in queries:
        size = len(q.instance.text) if q.instance is not None else 0
        if q.verb not in first or size < first[q.verb][0]:
            first[q.verb] = (size, q)
    for _, q in first.values():
        call(q.argv)


class Reference:
    """A fixed piece of pure-Python work, timed now and then during a run.

    The shared machine the benchmark runs on changes speed by tens of
    percent within seconds and from one minute to the next, for every
    process alike.  The reference is the oracle's own closure, matching and
    components on a fixed 150-element order: big-integer bit operations and
    list traffic like chaincover's, but code that no change to chaincover
    touches.  The median of its samples near a moment, against
    ``REFERENCE_S``, gives the machine's speed v then, and timings are
    reported at speed 1: a query that took L seconds at speed v reads L * v.
    The collector is off while it runs, so chaincover's heap cannot slow it.
    """

    def __init__(self):
        rng = random.Random("reference")
        n = 150
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.1]
        self.text = f"n {n}\n" + "".join(f"{u} {v}\n" for u, v in pairs)
        self.starts: list[float] = []
        self.samples: list[float] = []
        self.last = 0.0

    def sample(self) -> None:
        gc.disable()
        try:
            start = perf_counter()
            truth = oracle.Truth(self.text)
            truth.width()
            truth.components()
            self.last = perf_counter()
            self.starts.append(start)
            self.samples.append(self.last - start)
        finally:
            gc.enable()

    def due(self) -> bool:
        return perf_counter() - self.last >= REFERENCE_EVERY_S

    def speed(self, at: float | None = None) -> float:
        """The speed over the whole run, or within the window around ``at``."""
        xs = self.samples
        if at is not None:
            lo = bisect.bisect_left(self.starts, at - REFERENCE_WINDOW_S)
            hi = bisect.bisect_right(self.starts, at + REFERENCE_WINDOW_S)
            xs = self.samples[lo:hi] or xs
        return REFERENCE_S / statistics.median(xs)


def timed_loop(queries, order, seconds: float, ref: Reference):
    """Closed loop over ``order``, pass after pass, until ``seconds`` have passed.

    The first pass always completes, so every query has a sample; after it
    the loop stops at the deadline, mid-pass if need be.  The metrics are
    taken over per-query medians (see ``per_query``), so the queries a
    partial pass repeated once more do not gain weight.  Between queries the
    reference is sampled every ``REFERENCE_EVERY_S`` seconds.  Returns the
    results, the wall time, and each result's latency at speed 1, scaled by
    the speed in the window around the middle of that query.
    """
    results, starts = [], []
    start = perf_counter()
    while True:
        for qi in order:
            if ref.due():
                ref.sample()
            starts.append(perf_counter())
            results.append((qi, *call(queries[qi].argv)))
            if len(results) >= len(order) and perf_counter() - start >= seconds:
                wall = perf_counter() - start
                scaled = [(r[0], r[4] * ref.speed(t + r[4] / 2))
                          for r, t in zip(results, starts)]
                return results, wall, scaled


def per_query(samples) -> dict[int, float]:
    """Each query's median latency over its (query, seconds) samples."""
    by_query: dict[int, list[float]] = {}
    for qi, seconds in samples:
        by_query.setdefault(qi, []).append(seconds)
    return {qi: statistics.median(xs) for qi, xs in by_query.items()}


def answer_hash(rc, stdout: str) -> str:
    return hashlib.sha256(f"{rc}\n{stdout}".encode()).hexdigest()


def release(inst) -> None:
    truth = inst.extra.get("truth") if inst is not None else None
    if truth is not None:
        truth.release()


def verify(queries, results, golden: dict | None) -> dict[int, str]:
    """Check every distinct answer; returns {query index: reason} for failures."""
    failures: dict[int, str] = {}
    answers: dict[int, set] = {}
    for qi, rc, stdout, stderr, _ in results:
        if rc is None:
            failures[qi] = "traceback: " + stderr.strip().splitlines()[-1]
        answers.setdefault(qi, set()).add((rc, stdout))
    # Query indices run instance by instance, cov first, so the width an
    # antichain is checked against is proven before it is needed, and each
    # instance's networkx graph can be dropped once its answers are done.
    current = None
    for qi in sorted(answers):
        q = queries[qi]
        if q.instance is not current:
            release(current)
            current = q.instance
        if len(answers[qi]) > 1:
            failures.setdefault(qi, "answers differ between repeats")
            continue
        rc, stdout = next(iter(answers[qi]))
        if rc is None:
            continue
        if golden is not None and golden.get(q.key) != answer_hash(rc, stdout):
            failures[qi] = "output differs from the golden output"
            continue
        reason = oracle.check(q, rc, stdout)
        if reason:
            failures[qi] = reason
    release(current)
    return failures


def tail(latencies: list[float]) -> tuple[float, int]:
    """The highest whole percentile with at least ten samples beyond it."""
    xs = sorted(latencies)
    for p in range(99, 0, -1):
        rank = math.ceil(p * len(xs) / 100)
        if 1 <= rank <= len(xs) - 10:
            return xs[rank - 1], p
    return statistics.median(xs), 50


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "chaincover").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:12]


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()[:12]
        return ref[:12]
    except OSError:
        return "unknown"


def load_golden(workload: str, seed: int, size: str) -> dict | None:
    if seed != DEFAULT_SEED or size != "full" or not GOLDEN.is_file():
        return None
    return json.loads(GOLDEN.read_text())["workloads"].get(workload)


def make_queries(workload, seed, size, insts):
    """The queries and their seeded order, derived outside any timing."""
    queries = workloads.WORKLOADS[workload][1](insts, seed, size)
    order = list(range(len(queries)))
    random.Random(f"{workload}:order:{seed}").shuffle(order)
    return queries, order


def run_untraced(args, size, out):
    ref = Reference()
    times = []
    while len(times) < SETUP_REPEATS or (sum(times) < SETUP_SECONDS
                                          and len(times) < 3 * SETUP_REPEATS):
        ref.sample()
        elapsed, insts = setup(args.workload, args.seed, size, out)
        times.append(elapsed)
    queries, order = make_queries(args.workload, args.seed, size, insts)
    warm_up(queries)
    results, wall, scaled = timed_loop(queries, order, args.seconds, ref)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    speed = ref.speed()
    raw = list(per_query((r[0], r[4]) for r in results).values())
    lat = list(per_query(scaled).values())
    tail_s, pct = tail(lat)
    setup_s = statistics.median(times)
    print(f"machine speed {speed:.3f}: reference median "
          f"{REFERENCE_S / speed * 1000:.2f} ms of {len(ref.samples)} samples, "
          f"nominal {REFERENCE_S * 1000:g} ms; timings below are at speed 1, "
          f"wall-clock values after 'wall'")
    metrics = {
        "setup_s": (setup_s * speed, "s", f"wall {setup_s:.3f}; median of "
                    + ", ".join(f"{t:.3f}" for t in times)),
        "queries_per_s": (len(lat) / sum(lat), "1/s",
                          f"wall {len(raw) / sum(raw):.3f}; {len(results)} runs "
                          f"of {len(lat)} queries in {wall:.2f} s"),
        "query_p50_ms": (statistics.median(lat) * 1000, "ms",
                         f"wall {statistics.median(raw) * 1000:.1f}; "
                         "of per-query medians"),
        "query_tail_ms": (tail_s * 1000, "ms",
                          f"wall {tail(raw)[0] * 1000:.1f}; p{pct} of {len(lat)} "
                          "per-query medians"),
        "peak_rss_mb": (peak_mb, "MB", "ru_maxrss after the timed loop"),
    }
    return queries, results, metrics


def run_traced(args, size, out):
    tr = tracer.Tracer()
    _, insts = setup(args.workload, args.seed, size, out, tr.install)
    tr.remove()
    queries, order = make_queries(args.workload, args.seed, size, insts)
    warm_up(queries)
    plain, wall_plain = one_pass(queries, order)
    tr.install()
    traced, wall_traced = one_pass(queries, order, lambda i: setattr(tr, "query", i))
    tr.remove()
    spans = tr.spans
    OUT.mkdir(exist_ok=True)
    tr.write(OUT / f"trace-{args.workload}-seed{args.seed}.tsv")
    tracer.check_exercised(spans, workloads.EXERCISED[args.workload])
    metrics = {name: (value, unit, "")
               for name, (value, unit) in
               tracer.layer_metrics(spans, workloads.BUDGET).items()}
    if args.workload == "reduce-sweep" and not metrics["reduction.subcover.calls"][0]:
        raise tracer.TraceBroken("reduction made no sub-cover through min_chain_cover")
    metrics["trace.overhead_ratio"] = (wall_traced / wall_plain, "1",
                                       f"untraced {wall_plain:.2f} s, "
                                       f"traced {wall_traced:.2f} s")
    return queries, plain + traced, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny instances, for the smoke test")
    args = ap.parse_args(argv)
    if not use_checkout_sources():
        print(f"perfbench: no chaincover sources under {SRC}", file=sys.stderr)
        return 2
    size = "tiny" if args.tiny else "full"
    nproc = os.cpu_count() or 1
    load_before = os.getloadavg()[0]
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={size}")
    print(f"python={platform.python_version()} nproc={nproc} git={git_sha()} "
          f"src={source_digest()} load_before={load_before:.2f}")
    out = OUT / f"{args.workload}-{os.getpid()}"
    out.mkdir(parents=True, exist_ok=True)
    try:
        run = run_traced if args.trace else run_untraced
        queries, results, metrics = run(args, size, out)
        failures = verify(queries, results, load_golden(args.workload, args.seed, size))
    except ImportError as exc:
        print(f"perfbench: import failed: {exc}", file=sys.stderr)
        return 2
    except tracer.TraceBroken as exc:
        print(f"perfbench: trace broken: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
    failed = sum(1 for r in results if r[0] in failures)
    for qi, reason in sorted(failures.items()):
        print(f"FAILED {queries[qi].key}: {reason}")
    load_after = os.getloadavg()[0]
    busy = max(load_before, load_after) > nproc
    print(f"load_after={load_after:.2f}" + (" LOADED: load average exceeded nproc"
                                            if busy else ""))
    for name, (value, unit, note) in metrics.items():
        print(f"{name:44s} {value:14.4f} {unit:6s} {note}")
    print(f"{'failed_ratio':44s} {failed / len(results):14.4f} {'1':6s} "
          f"{failed} of {len(results)} queries")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
