"""The three benchmark workloads: the instances each builds and its queries.

A workload is built in two steps.  ``build`` is the timed set-up: it uses
the library's own generators, serializes each instance with
``Poset.to_text`` and writes the files the CLI will read.  ``queries`` runs
afterwards, outside every timing: it derives the query arguments that need
an answer key (dist pairs, reduce thresholds) from the benchmark's own
oracle, never from the code under test.

Every random choice is drawn from ``random.Random`` seeded with the workload
name and the workload seed, so one seed always yields the same files and the
same queries.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import oracle

# find-grid node budget: a budget-exhausted call has spent exactly BUDGET + 1
# nodes, which makes the Unknown answers a fixed amount of search work.
BUDGET = 20000

# Symbolic terms with their covering numbers by the paper's rules:
# cov(grid(nu)) = nu, duality changes nothing, a sum covers with the join of
# its parts, a finite k-grid needs floor(k/2) chains, a chain one.
SYM_COV = {
    "grid(aleph(1))": "aleph(1)",
    "dual(grid(aleph(w+1)))": "aleph(w+1)",
    "lexsum([grid(5),chain(aleph(2)),antichain(3)])": "3",
    "lexsumfam(inc,w,aleph(succ_n))": "aleph(w)",
    "grid(12)": "6",
    "chain(aleph(w^2))": "1",
}


def _sums(spec: str) -> list[str]:
    inc, dec = f"lexsumfam(inc,w,{spec})", f"lexsumfam(dec,w,{spec})"
    return [inc, dec, f"dual({inc})", f"dual({dec})"]


# Obstruction lists: a successor aleph gives the grid and its dual, a limit
# aleph the four sum forms over its successor family.
OBSTRUCTIONS = {
    "aleph(1)": ["grid(aleph(1))", "dual(grid(aleph(1)))"],
    "aleph(w*3+2)": ["grid(aleph(w*3+2))", "dual(grid(aleph(w*3+2)))"],
    "aleph(w)": _sums("aleph(succ_n)"),
    "aleph(w^2)": _sums("aleph(succ_fund(w^2))"),
}


@dataclass
class Instance:
    """One generated input file and what the oracle needs to know about it."""

    name: str
    path: Path
    text: str
    kind: str  # "random", "grid" or "ideal"
    extra: dict = field(default_factory=dict)


@dataclass
class Query:
    """One CLI call: its argv and a stable key for its golden output.

    ``oracle.check`` picks the answer check by ``verb``; ``extra`` holds
    what that check needs beyond the instance (pair, threshold, expected).
    """

    key: str
    argv: list[str]
    verb: str
    instance: Instance | None = None
    extra: dict = field(default_factory=dict)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _write(out: Path, name: str, text: str) -> Path:
    path = out / name
    path.write_text(text)
    return path


def _random(gen, out, name, n, p, rng):
    text = gen.random_poset(n, p, rng.randrange(1, 1 << 63)).to_text()
    return Instance(name, _write(out, name, text), text, "random")


def _grid(gen, out, k):
    name = f"grid{k}.poset"
    text = gen.grid_upper(k).to_text()
    return Instance(name, _write(out, name, text), text, "grid")


# -- cover-large ---------------------------------------------------------------

# (n, p, dist/check-metric pairs) of the random instances, then the grids.
# Latencies fall into groups: the n = 800 covers (~1.5 s), decompositions of
# the large instances (~300 ms), n = 800 distances (~200 ms), every grid
# query but its decomposition (~165 ms, the grid does not change with the
# seed), and the small queries below 100 ms.  The pair counts put 15-19
# queries above the grid group and 20 below it, so the median falls inside
# the grid group and the tail percentile inside the n = 800 distances,
# instead of on the edge between two groups, where the seed would flip them
# from one group to the next.  grid_upper(60) is left out: its 11 queries
# would take half of a pass and its closure half of the set-up, leaving one
# sample per query in a run.
COVER_SIZES = {
    "full": ([(n, p, 1 if n == 200 else 2) for n in (200, 400, 800)
              for p in (0.05, 0.3)], (40,)),
    "tiny": ([(30, 0.1, 2), (30, 0.3, 2)], (6,)),
}
GRID_PAIRS = 4


def build_cover(gen, out: Path, seed: int, size: str) -> list[Instance]:
    rng = _rng("cover-large", seed)
    randoms, grids = COVER_SIZES[size]
    insts = []
    for n, p, pairs in randoms:
        insts.append(_random(gen, out, f"r{n}_{p}.poset", n, p, rng))
        insts[-1].extra["pairs"] = pairs
    return insts + [_grid(gen, out, k) for k in grids]


def queries_cover(insts: list[Instance], seed: int, size: str) -> list[Query]:
    rng = _rng("cover-large:pairs", seed)
    qs = []
    for inst in insts:
        truth = oracle.truth_of(inst)
        f = str(inst.path)
        qs.append(Query(f"cov {inst.name} --witness", ["cov", f, "--witness", "--json"],
                        "cov", inst))
        qs.append(Query(f"antichain {inst.name}", ["antichain", f, "--json"],
                        "antichain", inst))
        qs.append(Query(f"decompose {inst.name}", ["decompose", f, "--json"],
                        "decompose", inst))
        for x, y in truth.comparable_pairs_in_component(
                rng, inst.extra.get("pairs", GRID_PAIRS)):
            for verb in ("dist", "check-metric"):
                qs.append(Query(f"{verb} {inst.name} {x} {y}",
                                [verb, f, str(x), str(y), "--json"], verb, inst,
                                {"x": x, "y": y}))
    return qs


# -- reduce-sweep --------------------------------------------------------------

REDUCE_SIZES = {
    # One instance per n, p alternating, so latencies form a continuum and
    # the median does not jump between size classes from seed to seed.  n
    # stops at 100: a reduce at n = 150 takes ~4 s, too few samples per run.
    # Each reduce's cost depends on its instance's structure, so 44 queries
    # rather than fewer make the median and the tail steadier across seeds.
    "full": ([(n, (0.05, 0.1)[n % 2]) for n in range(60, 101)], (8, 10, 12)),
    "tiny": ([(12, 0.1), (16, 0.2)], (5,)),
}


def build_reduce(gen, out: Path, seed: int, size: str) -> list[Instance]:
    rng = _rng("reduce-sweep", seed)
    shapes, grids = REDUCE_SIZES[size]
    insts = [_random(gen, out, f"r{n}_{p}.poset", n, p, rng) for n, p in shapes]
    return insts + [_grid(gen, out, k) for k in grids]


def queries_reduce(insts: list[Instance], seed: int, size: str) -> list[Query]:
    qs = []
    for inst in insts:
        t = oracle.truth_of(inst).width()
        qs.append(Query(f"reduce {inst.name} -t {t}",
                        ["reduce", str(inst.path), "-t", str(t), "--json"],
                        "reduce", inst, {"t": t}))
    return qs


# -- search --------------------------------------------------------------------

SEARCH_SIZES = {
    # (n, p, dual) of the find-grid hosts, each searched for k = 6 and k = 7;
    # n evenly spread over 120..300 for the same reason as in reduce-sweep.
    # Then the ideal chains (grid n, ideal count m), which take no seed, and
    # the number of sym-cov and of obstructions queries.
    "full": ([(120 + 180 * i // 39, (0.1, 0.2)[i % 2], i // 2 % 2 == 1)
              for i in range(40)], (6, 7),
             [(20 + 2 * i, 4 + i % 7) for i in range(11)], 3),
    "tiny": ([(20, 0.3, False), (20, 0.3, True)], (3,), [(8, 3)], 1),
}


def build_search(gen, out: Path, seed: int, size: str) -> list[Instance]:
    rng = _rng("search", seed)
    hosts, _, chains, _ = SEARCH_SIZES[size]
    insts = []
    for n, p, dual in hosts:
        name = f"r{n}_{p}{'_dual' if dual else ''}.poset"
        inst = _random(gen, out, name, n, p, rng)
        inst.extra["dual"] = dual
        insts.append(inst)
    for n, m in chains:
        grid, ideals = gen.canonical_ideal_chain(n, m)
        name = f"ideal{n}_{m}"
        text = grid.to_text()
        inst = Instance(name + ".poset", _write(out, name + ".poset", text), text,
                        "ideal", {"ideals": [sorted(j) for j in ideals]})
        lines = "".join(" ".join(map(str, j)) + "\n" for j in inst.extra["ideals"])
        inst.extra["ideals_path"] = _write(out, name + ".ideals", lines)
        insts.append(inst)
    return insts


def queries_search(insts: list[Instance], seed: int, size: str) -> list[Query]:
    rng = _rng("search:terms", seed)
    qs = []
    for inst in insts:
        f = str(inst.path)
        if inst.kind == "ideal":
            qs.append(Query(f"ideal-embed {inst.name}",
                            ["ideal-embed", f, "--ideals",
                             str(inst.extra["ideals_path"]), "--json"],
                            "ideal-embed", inst))
            continue
        dual = inst.extra["dual"]
        flags = ["--dual"] if dual else []
        for k in SEARCH_SIZES[size][1]:
            qs.append(Query(f"find-grid {inst.name} -k {k}{' --dual' if dual else ''}",
                            ["find-grid", f, "-k", str(k), *flags, "--budget",
                             str(BUDGET), "--json"], "find-grid", inst,
                            {"k": k, "dual": dual}))
    share = SEARCH_SIZES[size][3]
    for term in rng.sample(sorted(SYM_COV), share):
        qs.append(Query(f"sym-cov {term}", ["sym-cov", term, "--json"], "sym-cov",
                        extra={"expected": SYM_COV[term]}))
    for card in rng.sample(sorted(OBSTRUCTIONS), share):
        qs.append(Query(f"obstructions {card}", ["obstructions", card, "--json"],
                        "obstructions", extra={"expected": OBSTRUCTIONS[card]}))
    return qs


WORKLOADS = {
    "cover-large": (build_cover, queries_cover),
    "reduce-sweep": (build_reduce, queries_reduce),
    "search": (build_search, queries_search),
}

# Layers each workload must exercise; a traced run that records no span for
# one of them fails, so a renamed or bypassed function cannot read as zero.
EXERCISED = {
    "cover-large": ("core", "cover", "incgraph", "generators", "cli"),
    "reduce-sweep": ("core", "cover", "incgraph", "generators", "reduction", "cli"),
    "search": ("core", "cover", "generators", "patterns", "ideal_embed",
               "symbolic", "cli"),
}
