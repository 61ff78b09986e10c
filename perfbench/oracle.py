"""Answer checks that do not use the code under test.

Each instance's relation is rebuilt here from its text file by a closure of
this module's own, and cross-checked once per instance against networkx's
transitive closure.  Answers are then checked against that relation and
against networkx: covers and antichains by weak duality, decompositions and
distances by networkx components and shortest paths on the incomparability
graph, embeddings by re-validating the mapping.

networkx is imported only when checking starts, after the timed loop, so it
does not count toward the workload's peak resident set.
"""

from __future__ import annotations

import json


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def truth_of(inst) -> "Truth":
    """The instance's oracle, built on first use and kept on the instance."""
    truth = inst.extra.get("truth")
    if truth is None:
        truth = inst.extra["truth"] = Truth(inst.text)
    return truth


class Truth:
    """The order a poset file describes, as bitmask rows ``up``/``down``."""

    def __init__(self, text: str):
        lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
        lines = [ln for ln in lines if ln]
        self.n = int(lines[0][1])
        self.pairs = [(int(u), int(v)) for u, v in lines[1:]]
        self.up = self._close()
        self.down = [0] * self.n
        for x in range(self.n):
            for y in bits(self.up[x]):
                self.down[y] |= 1 << x
        self.full = (1 << self.n) - 1
        self.proven_width: int | None = None
        self._nx_checked = False
        self._inc_graph = None

    def _close(self) -> list[int]:
        # Reachability by dynamic programming over a topological order.
        n = self.n
        succ = [[] for _ in range(n)]
        indeg = [0] * n
        for u, v in self.pairs:
            succ[u].append(v)
            indeg[v] += 1
        order = [u for u in range(n) if not indeg[u]]
        for u in order:
            for v in succ[u]:
                indeg[v] -= 1
                if not indeg[v]:
                    order.append(v)
        if len(order) != n:
            raise ValueError("instance file is not acyclic")
        up = [0] * n
        for u in reversed(order):
            row = 0
            for v in succ[u]:
                row |= up[v] | (1 << v)
            up[u] = row
        return up

    def lt(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def inc_mask(self, x: int) -> int:
        return self.full & ~(self.up[x] | self.down[x] | (1 << x))

    def components(self) -> list[int]:
        seen, comps = 0, []
        for start in range(self.n):
            if seen >> start & 1:
                continue
            comp = frontier = 1 << start
            while frontier:
                x = (frontier & -frontier).bit_length() - 1
                frontier &= frontier - 1
                fresh = self.inc_mask(x) & ~comp
                comp |= fresh
                frontier |= fresh
            seen |= comp
            comps.append(comp)
        return comps

    def comparable_pairs_in_component(self, rng, count: int) -> list[tuple[int, int]]:
        """``count`` seeded pairs x < y that share an incomparability component."""
        comp_of = {}
        for comp in self.components():
            for x in bits(comp):
                comp_of[x] = comp
        starts = [x for x in range(self.n) if self.up[x] & comp_of[x]]
        pairs = []
        for _ in range(count):
            x = rng.choice(starts)
            y = rng.choice(list(bits(self.up[x] & comp_of[x])))
            pairs.append((x, y))
        return pairs

    def width(self, mask: int | None = None) -> int:
        """Minimum chain cover size of the subposet on ``mask`` (Kuhn matching)."""
        mask = self.full if mask is None else mask
        match_l = [-1] * self.n
        match_r = [-1] * self.n
        matched = 0
        for root in bits(mask):
            seen, parent, found = 0, {}, -1
            stack = [[root, self.up[root] & mask]]
            while stack and found < 0:
                top = stack[-1]
                cand = top[1] & ~seen
                if not cand:
                    stack.pop()
                    continue
                low = cand & -cand
                v = low.bit_length() - 1
                seen |= low
                top[1] = cand ^ low
                parent[v] = top[0]
                if match_r[v] < 0:
                    found = v
                else:
                    w = match_r[v]
                    stack.append([w, self.up[w] & mask])
            v = found
            while v >= 0:
                u = parent[v]
                prev = match_l[u]
                match_l[u], match_r[v] = v, u
                v = -1 if u == root else prev
            matched += found >= 0
        return mask.bit_count() - matched

    # -- networkx cross-checks, run once per instance -------------------------

    def check_closure_with_networkx(self) -> str | None:
        if self._nx_checked:
            return None
        import networkx as nx
        g = nx.DiGraph()
        g.add_nodes_from(range(self.n))
        g.add_edges_from(self.pairs)
        for u in range(self.n):
            row = 0
            for v in nx.descendants(g, u):
                row |= 1 << v
            if row != self.up[u]:
                return f"own closure disagrees with networkx at element {u}"
        self._nx_checked = True
        return None

    def inc_graph(self):
        if self._inc_graph is None:
            import networkx as nx
            g = nx.Graph()
            g.add_nodes_from(range(self.n))
            g.add_edges_from((x, y) for x in range(self.n)
                             for y in bits(self.inc_mask(x) >> (x + 1) << (x + 1)))
            self._inc_graph = g
        return self._inc_graph

    def nx_width(self, members: list[int]) -> int:
        """Dilworth width of an induced subposet by networkx Hopcroft-Karp."""
        import networkx as nx
        g = nx.Graph()
        left = [("l", x) for x in members]
        g.add_nodes_from(left)
        g.add_nodes_from(("r", x) for x in members)
        keep = 0
        for x in members:
            keep |= 1 << x
        g.add_edges_from((("l", x), ("r", y)) for x in members
                         for y in bits(self.up[x] & keep))
        matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
        return len(members) - len(matching) // 2

    def release(self) -> None:
        """Drop the networkx graph once the instance's answers are checked."""
        self._inc_graph = None


# -- answer checks -------------------------------------------------------------

def _antichain_error(t: Truth, members) -> str | None:
    for i, x in enumerate(members):
        for y in members[i + 1:]:
            if x == y or t.lt(x, y) or t.lt(y, x):
                return f"antichain members {x},{y} are comparable or equal"
    return None


def _embedding_error(t: Truth, k: int, dual: bool, mapping) -> str | None:
    labels = [(a, b) for a in range(k) for b in range(a + 1, k)]
    if len(mapping) != len(labels) or len(set(mapping)) != len(mapping):
        return "mapping is not injective on the grid"
    if not all(0 <= v < t.n for v in mapping):
        return "mapping leaves the poset"
    for i, (a, b) in enumerate(labels):
        for j, (c, d) in enumerate(labels):
            # dual(grid) reverses the order: i < j there iff j < i in the grid
            below = i != j and ((c <= a and d <= b) if dual else (a <= c and b <= d))
            if below != t.lt(mapping[i], mapping[j]):
                return f"grid points {i},{j} are not mapped as an induced copy"
    return None


def _path_error(t: Truth, x: int, y: int, d: int, path) -> str | None:
    import networkx as nx
    expected = nx.shortest_path_length(t.inc_graph(), x, y)
    if d != expected:
        return f"distance {d}, networkx says {expected}"
    if len(path) != d + 1 or path[0] != x or path[-1] != y:
        return "path does not run from x to y in d steps"
    for u, v in zip(path, path[1:]):
        if not t.inc_mask(u) >> v & 1:
            return f"path step {u}-{v} is not an incomparability edge"
    return None


def _check_cov(q, t, rc, out):
    chains, cert = out["chains"], out["certificate"]
    seen = sorted(x for c in chains for x in c)
    if seen != list(range(t.n)):
        return "chains do not partition the elements"
    for c in chains:
        if any(not t.lt(u, v) for u, v in zip(c, c[1:])):
            return "a chain is not increasing"
    if len(cert) != len(chains) or out["width"] != len(chains):
        return "certificate and chain count differ"
    err = _antichain_error(t, cert)
    if err is None:
        t.proven_width = len(chains)
    return err


def _check_antichain(q, t, rc, out):
    members = out["antichain"]
    if len(members) != t.proven_width:
        return f"antichain has {len(members)} elements, width is {t.proven_width}"
    return _antichain_error(t, members)


def _check_decompose(q, t, rc, out):
    import networkx as nx
    parts = out["parts"]
    want = {frozenset(c) for c in nx.connected_components(t.inc_graph())}
    if {frozenset(p) for p in parts} != want or len(parts) != len(want):
        return "parts differ from networkx incomparability components"
    if any(p != sorted(p) for p in parts):
        return "a part is not listed in ascending order"
    for low, high in zip(parts, parts[1:]):
        if not t.lt(low[0], high[0]):
            return "parts are not in chain order"
    return None


def _check_dist(q, t, rc, out):
    if not out["reachable"]:
        return "pair in one component reported unreachable"
    return _path_error(t, q.extra["x"], q.extra["y"], out["distance"], out["path"])


def _check_metric(q, t, rc, out):
    if not (out["item1_ok"] and out["item2_ok"]) or out["violations"]:
        return "metric lemma reported violated"
    x, y, path = q.extra["x"], q.extra["y"], out["path"]
    err = _path_error(t, x, y, out["distance"], path)
    if err:
        return err
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if not t.lt(path[i], path[j]):
                return "path is not increasing two steps apart"
    union = 0
    for v in path[1:-1]:
        union |= t.inc_mask(v)
    interval = (t.up[x] | 1 << x) & (t.down[y] | 1 << y)
    if interval & ~union:
        return "interval not covered by the interior incomparability sets"
    return None


REDUCE_CASES = {"case1", "case1_dual", "case2", "unreduced"}


def _check_reduce(q, t, rc, out):
    threshold = q.extra["t"]
    if out["threshold"] != threshold or out["case"] not in REDUCE_CASES:
        return "threshold or case field is wrong"
    antichain = out["antichain"]
    err = _antichain_error(t, antichain)
    if err:
        return err
    inc_l = t.full
    for x in antichain:
        inc_l &= t.inc_mask(x)
    if out["q"] != list(bits(inc_l)):
        return "q is not the incomparability set of the antichain"
    if t.nx_width(out["q"]) < threshold:
        return "restricted poset lost the threshold"
    members = set(out["q"])
    if out["x0"] is not None and (out["x0"] not in members
                                  or not set(out["selected"]) <= members):
        return "pivot or selection lies outside q"
    return None


def _check_find_grid(q, t, rc, out):
    want = {0: "found", 1: "not found", 3: "unknown"}[rc]
    if out["result"] != want:
        return f"exit {rc} with result {out['result']!r}"
    if rc == 0:
        return _embedding_error(t, q.extra["k"], q.extra["dual"], out["mapping"])
    return None


def _check_ideal_embed(q, t, rc, out):
    want = {0: "found", 1: "failure", 3: "unknown"}[rc]
    if out["result"] != want:
        return f"exit {rc} with result {out['result']!r}"
    if rc != 0:
        return None
    ideals = q.instance.extra["ideals"]
    m = len(ideals)
    err = _embedding_error(t, m, False, out["mapping"])
    if err:
        return err
    layers, before = [], set()
    for ideal in ideals:
        layers.append(set(ideal) - before)
        before |= set(ideal)
    positions = [(a, b) for a in range(m) for b in range(a + 1, m)]
    for (a, _), img in zip(positions, out["mapping"]):
        if img not in layers[a]:
            return f"image {img} escaped layer {a}"
    return None


def _check_sym_cov(q, t, rc, out):
    return None if out["cov"] == q.extra["expected"] else f"cov {out['cov']!r}"


def _check_obstructions(q, t, rc, out):
    got = out["obstructions"]
    return None if got == q.extra["expected"] else f"obstructions {got!r}"


CHECKS = {
    "cov": _check_cov, "antichain": _check_antichain,
    "decompose": _check_decompose, "dist": _check_dist,
    "check-metric": _check_metric, "reduce": _check_reduce,
    "find-grid": _check_find_grid, "ideal-embed": _check_ideal_embed,
    "sym-cov": _check_sym_cov, "obstructions": _check_obstructions,
}
# Exit codes each verb may answer with; anything else is a failed query.
EXIT_CODES = {"find-grid": (0, 1, 3), "ideal-embed": (0, 1, 3)}


def check(q, rc, stdout: str) -> str | None:
    """Why the answer to ``q`` is wrong, or None when it checks out."""
    if rc not in EXIT_CODES.get(q.verb, (0,)):
        return f"unexpected exit code {rc}"
    try:
        out = json.loads(stdout)
    except ValueError:
        return "output is not one JSON object"
    if not isinstance(out, dict) or out.get("schema") != 1:
        return "not a schema 1 payload"
    t = None
    if q.instance is not None:
        t = truth_of(q.instance)
        err = t.check_closure_with_networkx()
        if err:
            return err
    try:
        return CHECKS[q.verb](q, t, rc, out)
    except (KeyError, TypeError, IndexError) as exc:
        return f"malformed payload: {exc!r}"
