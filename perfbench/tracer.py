"""Spans around the calls into chaincover's public functions.

Each function is wrapped under every name its callers look it up by: a
module that did ``from .cover import min_chain_cover`` holds its own
reference, so wrapping ``cover.min_chain_cover`` alone would miss every call
made through ``reduction``.  A span records (name, parent span, query id,
start, end, outcome, size of the first argument); spans stay in memory and
are written out once the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns

# (module, attribute, span name): every lookup site of a traced function.
SITES = (
    ("core", "from_text", "core.from_text"),
    ("core", "from_relations", "core.from_relations"),
    ("generators", "from_relations", "core.from_relations"),
    ("core", "induced", "core.induced"),
    ("incgraph", "induced", "core.induced"),
    ("reduction", "induced", "core.induced"),
    ("core.Poset", "to_text", "core.to_text"),
    ("cover", "min_chain_cover", "cover.min_chain_cover"),
    ("reduction", "min_chain_cover", "cover.min_chain_cover"),
    ("incgraph", "inc_components", "incgraph.inc_components"),
    ("reduction", "inc_components", "incgraph.inc_components"),
    ("incgraph", "inc_distance_path", "incgraph.inc_distance_path"),
    ("reduction", "inc_distance_path", "incgraph.inc_distance_path"),
    ("incgraph", "check_metric_lemma", "incgraph.check_metric_lemma"),
    ("generators", "random_poset", "generators.random_poset"),
    ("generators", "grid_upper", "generators.grid_upper"),
    ("ideal_embed", "grid_upper", "generators.grid_upper"),
    ("generators", "canonical_ideal_chain", "generators.canonical_ideal_chain"),
    ("patterns", "embeds_grid", "patterns.embeds_grid"),
    ("patterns", "embeds", "patterns.embeds"),
    ("reduction", "reduce", "reduction.reduce"),
    ("reduction", "claim1_reduce", "reduction.claim1_reduce"),
    ("ideal_embed", "validate_ideal_chain", "ideal_embed.validate_ideal_chain"),
    ("ideal_embed", "embed_from_ideal_chain", "ideal_embed.embed_from_ideal_chain"),
    ("symbolic", "parse_term", "symbolic.parse_term"),
    ("symbolic", "cov_symbolic", "symbolic.cov_symbolic"),
    ("symbolic", "obstruction_list", "symbolic.obstruction_list"),
    ("cli", "run", "cli.run"),
)


class TraceBroken(RuntimeError):
    """A traced name is gone, or a layer a workload exercises recorded nothing."""


def _owner(path: str):
    module, _, cls = path.partition(".")
    owner = sys.modules.get(f"chaincover.{module}")
    if owner is None:
        raise TraceBroken(f"module chaincover.{module} is not loaded")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Installs span-recording wrappers at every site; ``remove`` undoes it."""

    def __init__(self):
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.query = -1
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack

        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            outcome = "NoneType"
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                outcome = type(result).__name__
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = perf_counter_ns()
                stack.pop()
                size = getattr(args[0], "n", -1) if args else -1
                spans[sid] = (name, parent, self.query, start, end, outcome, size)

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {}
        for path, attr, name in SITES:
            owner = _owner(path)
            fn = getattr(owner, attr, None)
            if not callable(fn):
                raise TraceBroken(f"chaincover.{path}.{attr} no longer exists")
            # one wrapper per function object, so aliases stay identical
            wrapper = wrappers.setdefault((id(fn), name), self._wrap(fn, name))
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id\tname\tparent\tquery\tstart_ns\tend_ns\toutcome\tsize\n")
            for sid, span in enumerate(self.spans):
                fh.write(f"{sid}\t" + "\t".join(map(str, span)) + "\n")


def _ms(ns: int) -> float:
    return ns / 1e6


def layer_metrics(spans: list[tuple], budget: int) -> dict[str, tuple[float, str]]:
    """The per-layer metrics, each as (value, unit), from a finished trace.

    ``.ms`` sums the spans of a name that are not nested in a span of the
    same name (recursion counts once); ``.self_ms`` subtracts the time of
    each span's direct children.
    """
    calls: dict[str, int] = {}
    total: dict[str, int] = {}
    self_ns: dict[str, int] = {}
    outcomes: dict[tuple[str, str], int] = {}
    child_ns = [0] * len(spans)
    sizes: dict[str, int] = {}
    sub_calls = sub_ns = 0
    unknown_ns = 0
    names = [s[0] for s in spans]
    for sid, (name, parent, _q, start, end, outcome, size) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_ns[parent] += dur
        calls[name] = calls.get(name, 0) + 1
        sizes[name] = sizes.get(name, 0) + max(size, 0)
        key = (name, outcome)
        outcomes[key] = outcomes.get(key, 0) + 1
        ancestors = []
        p = parent
        while p >= 0:
            ancestors.append(names[p])
            p = spans[p][1]
        if name not in ancestors:
            total[name] = total.get(name, 0) + dur
        if name == "cover.min_chain_cover" and any(a.startswith("reduction.")
                                                   for a in ancestors):
            sub_calls += 1
            sub_ns += dur
        if name == "patterns.embeds" and outcome == "BudgetExhausted":
            unknown_ns += dur
    for sid, span in enumerate(spans):
        self_ns[span[0]] = self_ns.get(span[0], 0) + span[4] - span[3] - child_ns[sid]

    def c(name):
        return float(calls.get(name, 0)), "count"

    def ms(name):
        return _ms(total.get(name, 0)), "ms"

    def self_ms(name):
        return _ms(self_ns.get(name, 0)), "ms"

    def out(name, outcome):
        return float(outcomes.get((name, outcome), 0)), "count"

    grid_calls = calls.get("patterns.embeds_grid", 0)
    found = outcomes.get(("patterns.embeds_grid", "Embedding"), 0)
    not_found = outcomes.get(("patterns.embeds_grid", "NoneType"), 0)
    unknown = outcomes.get(("patterns.embeds", "BudgetExhausted"), 0)
    mcc = calls.get("cover.min_chain_cover", 0)
    return {
        "core.from_text.calls": c("core.from_text"),
        "core.from_text.self_ms": self_ms("core.from_text"),
        "core.from_relations.ms": ms("core.from_relations"),
        "core.induced.calls": c("core.induced"),
        "core.induced.ms": ms("core.induced"),
        "core.to_text.ms": ms("core.to_text"),
        "cover.min_chain_cover.calls": c("cover.min_chain_cover"),
        "cover.min_chain_cover.ms": ms("cover.min_chain_cover"),
        "cover.min_chain_cover.mean_n": (
            sizes.get("cover.min_chain_cover", 0) / mcc if mcc else 0.0, "count"),
        "incgraph.inc_components.calls": c("incgraph.inc_components"),
        "incgraph.inc_components.ms": ms("incgraph.inc_components"),
        "incgraph.inc_distance_path.calls": c("incgraph.inc_distance_path"),
        "incgraph.inc_distance_path.ms": ms("incgraph.inc_distance_path"),
        "incgraph.check_metric_lemma.self_ms": self_ms("incgraph.check_metric_lemma"),
        "generators.random_poset.ms": ms("generators.random_poset"),
        "generators.grid_upper.ms": ms("generators.grid_upper"),
        "generators.canonical_ideal_chain.ms": ms("generators.canonical_ideal_chain"),
        "patterns.embeds_grid.calls": c("patterns.embeds_grid"),
        "patterns.embeds_grid.self_ms": self_ms("patterns.embeds_grid"),
        "patterns.embeds.calls": c("patterns.embeds"),
        "patterns.embeds.ms": ms("patterns.embeds"),
        "patterns.found": (float(found), "count"),
        "patterns.not_found": (float(not_found), "count"),
        "patterns.unknown": (float(unknown), "count"),
        "patterns.resolved_ratio": (
            (found + not_found) / grid_calls if grid_calls else 0.0, "1"),
        # a budget-exhausted search has spent exactly budget + 1 nodes
        "patterns.unknown_nodes_per_s": (
            unknown * (budget + 1) / (unknown_ns / 1e9) if unknown_ns else 0.0, "1/s"),
        "reduction.reduce.calls": c("reduction.reduce"),
        "reduction.reduce.self_ms": self_ms("reduction.reduce"),
        "reduction.claim1_reduce.ms": ms("reduction.claim1_reduce"),
        "reduction.subcover.calls": (float(sub_calls), "count"),
        "reduction.subcover.ms": (_ms(sub_ns), "ms"),
        "ideal_embed.validate_ideal_chain.ms": ms("ideal_embed.validate_ideal_chain"),
        "ideal_embed.embed_from_ideal_chain.self_ms":
            self_ms("ideal_embed.embed_from_ideal_chain"),
        "ideal_embed.found": out("ideal_embed.embed_from_ideal_chain", "Embedding"),
        "ideal_embed.failure": out("ideal_embed.embed_from_ideal_chain", "EmbedFailure"),
        "ideal_embed.unknown": out("ideal_embed.embed_from_ideal_chain",
                                   "BudgetExhausted"),
        "symbolic.parse_term.ms": ms("symbolic.parse_term"),
        "symbolic.cov_symbolic.ms": ms("symbolic.cov_symbolic"),
        "symbolic.obstruction_list.ms": ms("symbolic.obstruction_list"),
        "cli.run.self_ms": self_ms("cli.run"),
    }


def check_exercised(spans: list[tuple], layers) -> None:
    """Raise TraceBroken naming each layer that recorded no span."""
    seen = {s[0].split(".", 1)[0] for s in spans}
    missing = [layer for layer in layers if layer not in seen]
    if missing:
        raise TraceBroken("no spans recorded for layer(s): " + ", ".join(missing))
