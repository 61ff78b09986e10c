"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the algorithms under test: antichains by
subset scan or branch and bound, chain partitions by direct set-partition search, embeddings by
injection enumeration, purity by downset enumeration.  Sizes are small; the
point is independence, not speed.

The functions from ``XorShift64Star`` on are the plain reference forms of
the library's kernels (the random stream one method call per draw, the text
parser with ``int_field`` on every field, recursive Hopcroft-Karp, König's
antichain by a second alternating search, Warshall closure, per-bit
transpose, per-bit cover pairs, the recursive embedding searches, the
longest chain by Kahn order, the pairwise checks of embeddings and ideal
chains, claim 1's greedy rule on induced copies, the exhaustive pivot loop
of ``reduce``, the per-bit restriction of a successor list to a mask, a
chain's order by placement, the recursive comparison of CNF ordinals); the
kernels must return exactly what they return, down to the nodes a budgeted
search spends.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from chaincover.core import (MAX_TEXT_ELEMENTS, CycleError,
                             InternalInconsistency, Poset, _find_cycle,
                             from_relations, induced, int_field, iter_bits,
                             mask_of)
from chaincover.cover import min_chain_cover
from chaincover.generators import grid_upper
from chaincover.ideal_embed import ChainViolation, EmbedFailure, IdealChain
from chaincover.incgraph import inc_components
from chaincover.patterns import BudgetExhausted, Embedding, linear_extension
from chaincover.reduction import claim1_reduce
from chaincover.symbolic import OrdinalCNF


def is_antichain(p: Poset, members) -> bool:
    """No member repeats or lies below another.  x < y is bit y of x's
    up-row, so every pair is read at once as one AND per member."""
    members = list(members)
    inside = mask_of(members)
    return (inside.bit_count() == len(members)
            and not any(p.up[x] & inside for x in members))


def brute_max_antichain_size(p: Poset) -> int:
    """Largest pairwise-incomparable subset, by scanning all subsets."""
    assert p.n <= 16, "subset scan limited to n <= 16"
    best = 0
    for size in range(p.n, best, -1):
        for members in combinations(range(p.n), size):
            if is_antichain(p, members):
                return size
    return best


def brute_max_antichain(p: Poset) -> frozenset[int]:
    """A largest antichain by branch and bound (n <= 32), for sizes past the
    subset scan.

    Elements in index order, include branch first; no matching involved.
    """
    assert p.n <= 32, "branch and bound limited to n <= 32"
    comp = [p.up[x] | p.down[x] for x in range(p.n)]
    best = [0, 0]  # count, mask

    def rec(cand: int, count: int, chosen: int) -> None:
        if count > best[0]:
            best[0] = count
            best[1] = chosen
        if not cand or count + bin(cand).count("1") <= best[0]:
            return
        low = cand & -cand
        x = low.bit_length() - 1
        rec(cand & ~(low | comp[x]), count + 1, chosen | low)
        rec(cand ^ low, count, chosen)

    rec((1 << p.n) - 1, 0, 0)
    return frozenset(iter_bits(best[1]))


def brute_extreme_antichains(p: Poset, mask: int) -> tuple[int, int]:
    """The least and the greatest maximum antichain of the subposet on
    ``mask`` (n <= 12), as masks, by scanning every subset of it.

    Maximum antichains form a lattice under A <= B iff the down-closure of
    A lies inside that of B; the extremes are the members whose
    down-closure lies inside, or contains, every other one's.
    """
    assert p.n <= 12, "subset scan limited to n <= 12"
    members = list(iter_bits(mask))
    best, found = -1, []
    for bits in range(1 << len(members)):
        sub = mask_of(x for i, x in enumerate(members) if bits >> i & 1)
        size = sub.bit_count()
        if size < best or not is_antichain(p, iter_bits(sub)):
            continue
        if size > best:
            best, found = size, []
        found.append(sub)

    def closure(a: int) -> int:
        return a | mask_of(y for x in iter_bits(a) for y in range(p.n)
                           if p.lt(y, x))

    closures = {a: closure(a) for a in found}.items()
    least = [a for a, ca in closures if all(ca & ~c == 0 for _, c in closures)]
    greatest = [a for a, ca in closures if all(c & ~ca == 0 for _, c in closures)]
    assert len(least) == len(greatest) == 1, "maximum antichains form a lattice"
    return least[0], greatest[0]


def brute_min_chain_partition(p: Poset) -> int:
    """Fewest blocks over all partitions into chains (n <= 9)."""
    assert p.n <= 9, "chain partition search limited to n <= 9"
    best = [p.n if p.n else 0]

    def is_chain_with(block: list[int], x: int) -> bool:
        return all(p.comparable(x, y) for y in block)

    def rec(x: int, blocks: list[list[int]]) -> None:
        if len(blocks) >= best[0]:
            return
        if x == p.n:
            best[0] = len(blocks)
            return
        for block in blocks:
            if is_chain_with(block, x):
                block.append(x)
                rec(x + 1, blocks)
                block.pop()
        blocks.append([x])
        rec(x + 1, blocks)
        blocks.pop()

    if p.n:
        rec(0, [])
    return best[0]


def brute_embeds(p: Poset, q: Poset) -> bool:
    """Complete injection enumeration in plain index order, no heuristics."""
    if q.n > p.n:
        return False
    image = []

    def rec(a: int) -> bool:
        if a == q.n:
            return True
        for x in range(p.n):
            if x in image:
                continue
            ok = True
            for b, y in enumerate(image):
                if q.lt(b, a) != p.lt(y, x) or q.lt(a, b) != p.lt(x, y):
                    ok = False
                    break
            if ok:
                image.append(x)
                if rec(a + 1):
                    return True
                image.pop()
        return False

    return rec(0)


def all_downsets(p: Poset) -> list[int]:
    """Every downward-closed subset, as bitmasks (n <= 16)."""
    assert p.n <= 16
    out = []
    for mask in range(1 << p.n):
        if all(p.down[x] & ~mask == 0 for x in iter_bits(mask)):
            out.append(mask)
    return out


def brute_is_pure(p: Poset) -> bool:
    """Purity by full downset enumeration, independent of the library route."""
    full = (1 << p.n) - 1
    for mask in all_downsets(p):
        if mask == full:
            continue
        outside = full & ~mask
        if not any(p.down[x] & mask == mask for x in iter_bits(outside)):
            return False
    return True


def shortest_inc_distance(p: Poset, x: int, y: int) -> int | None:
    """Breadth-first search over incomparability edges, adjacency by scan."""
    if x == y:
        return 0
    dist = {x: 0}
    frontier = [x]
    while frontier:
        nxt = []
        for u in frontier:
            for v in range(p.n):
                if v not in dist and p.incomparable(u, v):
                    dist[v] = dist[u] + 1
                    if v == y:
                        return dist[v]
                    nxt.append(v)
        frontier = nxt
    return None


def relabel(p: Poset, perm: list[int]) -> Poset:
    """The same order with element x renamed perm[x]."""
    rows = [0] * p.n
    for x in range(p.n):
        for y in iter_bits(p.up[x]):
            rows[perm[x]] |= 1 << perm[y]
    return Poset(p.n, tuple(rows))


_MASK64 = (1 << 64) - 1


class XorShift64Star:
    """The xorshift64* stream of ``random_poset`` as a generator object: one
    state update per draw, the form the portability fixture pins.  It is the
    reference that ``random_poset``'s lanes (jumped sub-streams stepped
    together in one integer) must match draw for draw."""

    def __init__(self, seed: int):
        self.state = (seed & _MASK64) or 0x9E3779B97F4A7C15

    def next_u64(self) -> int:
        s = self.state
        s ^= s >> 12
        s ^= (s << 25) & _MASK64
        s ^= s >> 27
        self.state = s
        return (s * 0x2545F4914F6CDD1D) & _MASK64


def reference_random_pairs(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """The pairs (i, j), i < j in lexicographic order, that ``random_poset``
    includes: one draw per pair, kept iff draw < floor(p * 2^64)."""
    rng = XorShift64Star(seed)
    threshold = int(p * (1 << 64))
    return [(i, j) for i in range(n) for j in range(i + 1, n)
            if rng.next_u64() < threshold]


def reference_from_text(text: str) -> Poset:
    """The poset text parser with ``int_field`` on every field: each line
    split at its first ``#``, then on whitespace."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        fields = raw.split("#", 1)[0].split()
        if not fields:
            continue
        try:
            if n is None:
                if len(fields) != 2 or fields[0] != "n":
                    raise ValueError("expected 'n <count>' header")
                n = int_field(fields[1])
                if n > MAX_TEXT_ELEMENTS:
                    raise ValueError(f"more than {MAX_TEXT_ELEMENTS} elements")
                continue
            if len(fields) != 2:
                raise ValueError("expected '<u> <v>'")
            u, v = int_field(fields[0]), int_field(fields[1])
            if u >= n or v >= n:
                raise ValueError(f"pair ({u}, {v}) out of range for {n} elements")
            pairs.append((u, v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return from_relations(n, pairs)


def reference_matching(rows: list[int], mask: int,
                       start: tuple[list[int], list[int]] | None = None
                       ) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp with a recursive depth-first search, adjacency visited
    bit by bit, lowest index first, grown from copies of the matching
    ``start`` (default: the empty one)."""
    n = len(rows)
    inf = n + 1
    match_l, match_r = ([-1] * n, [-1] * n) if start is None else map(list, start)
    dist = [0] * n
    left = list(iter_bits(mask))

    def bfs() -> bool:
        queue = deque()
        for u in left:
            if match_l[u] < 0:
                dist[u] = 0
                queue.append(u)
            else:
                dist[u] = inf
        found = False
        while queue:
            u = queue.popleft()
            for v in iter_bits(rows[u]):
                w = match_r[v]
                if w < 0:
                    found = True
                elif dist[w] == inf:
                    dist[w] = dist[u] + 1
                    queue.append(w)
        return found

    def dfs(u: int) -> bool:
        for v in iter_bits(rows[u]):
            w = match_r[v]
            if w < 0 or (dist[w] == dist[u] + 1 and dfs(w)):
                match_l[u] = v
                match_r[v] = u
                return True
        dist[u] = inf
        return False

    while bfs():
        for u in left:
            if match_l[u] < 0:
                dfs(u)
    return match_l, match_r


def reference_konig(rows: list[int], mask: int, match_l: list[int],
                    match_r: list[int]) -> int:
    """König's antichain from a maximum matching, as a second search: from
    the unmatched left vertices, alternate along non-matching edges to the
    right and matching edges back, and take the reached left vertices minus
    the reached right ones."""
    z_left = 0
    z_right = 0
    stack = [u for u in iter_bits(mask) if match_l[u] < 0]
    for u in stack:
        z_left |= 1 << u
    while stack:
        u = stack.pop()
        row = rows[u]
        if match_l[u] >= 0:
            row &= ~(1 << match_l[u])
        fresh = row & ~z_right
        z_right |= fresh
        for v in iter_bits(fresh):
            w = match_r[v]
            if w >= 0 and not z_left >> w & 1:
                z_left |= 1 << w
                stack.append(w)
    return z_left & ~z_right


def reference_closure(n: int, pairs) -> list[int]:
    """Warshall over bitmask rows; CycleError through the smallest element
    whose closed row contains itself."""
    adj = [0] * n
    for u, v in pairs:
        adj[u] |= 1 << v
    rows = list(adj)
    for k in range(n):
        kbit = 1 << k
        krow = rows[k]
        for i in range(n):
            if rows[i] & kbit:
                rows[i] |= krow
    for x in range(n):
        if rows[x] >> x & 1:
            raise CycleError(_find_cycle(n, adj, x))
    return rows


def reference_down(p: Poset) -> tuple[int, ...]:
    """Transpose of ``p.up`` one relation bit at a time."""
    rows = [0] * p.n
    for x in range(p.n):
        for y in iter_bits(p.up[x]):
            rows[y] |= 1 << x
    return tuple(rows)


def reference_cover_pairs(p: Poset) -> list[tuple[int, int]]:
    """Hasse edges one relation bit at a time: y covers x iff nothing of
    ``up[x]`` lies below y."""
    return [(x, y) for x in range(p.n) for y in iter_bits(p.up[x])
            if not p.up[x] & p.down[y]]


def reference_validate_embedding(e: Embedding) -> bool:
    """Injectivity, range and the order biconditional pair by pair."""
    q, p, f = e.source, e.target, e.mapping
    if len(f) != q.n or len(set(f)) != q.n:
        return False
    if any(not 0 <= x < p.n for x in f):
        return False
    return all(q.lt(a, b) == p.lt(f[a], f[b])
               for a in range(q.n) for b in range(q.n))


def reference_embeds(p: Poset, q: Poset, budget: int | None = None) -> Embedding | None:
    """Recursive backtracking over the same candidates in the same order:
    one node per candidate tried, BudgetExhausted past ``budget`` nodes.
    The candidates compare every target's (|up|, |down|, |inc_mask|)
    signature with every pattern element's, one pair at a time."""
    if q.n == 0:
        return Embedding(q, p, ())
    if q.n > p.n:
        return None
    def signatures(r: Poset) -> list[tuple[int, int, int]]:
        return [(r.up[x].bit_count(), r.down[x].bit_count(),
                 r.inc_mask(x).bit_count()) for x in range(r.n)]

    sig_p = signatures(p)
    sig_q = signatures(q)
    cand = []
    for a in range(q.n):
        ua, da, ia = sig_q[a]
        mask = 0
        for x in range(p.n):
            ux, dx, ix = sig_p[x]
            if ux >= ua and dx >= da and ix >= ia:
                mask |= 1 << x
        if not mask:
            return None
        cand.append(mask)
    order = linear_extension(q)
    assigned = [-1] * q.n
    nodes = 0

    def rec(pos: int, used: int) -> bool:
        nonlocal nodes
        if pos == q.n:
            return True
        qx = order[pos]
        mask = cand[qx] & ~used
        for qy in order[:pos]:
            py = assigned[qy]
            if q.lt(qy, qx):
                mask &= p.up[py]
            else:
                mask &= p.inc_mask(py)
            if not mask:
                return False
        for px in iter_bits(mask):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExhausted(f"embedding search passed {budget} nodes")
            assigned[qx] = px
            if rec(pos + 1, used | (1 << px)):
                return True
        assigned[qx] = -1
        return False

    if not rec(0, 0):
        return None
    return Embedding(q, p, tuple(assigned))


def reference_height(p: Poset) -> int:
    """Longest chain by Kahn order, one step per down-bit."""
    best = [0] * p.n
    for x in linear_extension(p):
        best[x] = 1 + max((best[y] for y in iter_bits(p.down[x])), default=0)
    return max(best, default=0)


def reference_validate_ideal_chain(c: IdealChain) -> tuple[ChainViolation, ...]:
    """The violations of ``c`` with the up-directedness scan run on every
    ideal, greatest element or not."""
    p = c.poset
    violations = []
    for a, ideal in enumerate(c.ideals):
        members = sorted(ideal)
        for x in members:
            if not 0 <= x < p.n:
                violations.append(ChainViolation("element out of range", a, (x,)))
                return tuple(violations)
        mask = mask_of(ideal)
        for x in members:
            stray = p.down[x] & ~mask
            if stray:
                y = (stray & -stray).bit_length() - 1
                violations.append(ChainViolation(
                    "not downward closed", a, (y, x)))
                break
        directed = True
        for i, x in enumerate(members):
            for y in members[i + 1:]:
                shared = (p.up[x] | (1 << x)) & (p.up[y] | (1 << y)) & mask
                if not shared:
                    violations.append(ChainViolation(
                        "not up-directed", a, (x, y)))
                    directed = False
                    break
            if not directed:
                break
        if not any(mask & ~(p.down[g] | (1 << g)) == 0 for g in members):
            violations.append(ChainViolation(
                "no cofinal chain (no greatest element)", a, ()))
    for a in range(len(c.ideals) - 1):
        if not c.ideals[a] < c.ideals[a + 1]:
            violations.append(ChainViolation(
                "nesting not strict", a + 1, tuple(sorted(c.ideals[a] - c.ideals[a + 1]))[:1]))
    for a, layer in enumerate(c.layers):
        if not layer:
            violations.append(ChainViolation("empty layer", a, ()))
    return tuple(violations)


def reference_embed_from_ideal_chain(c: IdealChain, budget: int = 10 ** 6
                                     ) -> Embedding | EmbedFailure:
    """Recursive placement of grid points, the constraints of each position
    rescanned from the whole assignment; ``c`` must be a valid chain."""
    m = len(c.ideals)
    p = c.poset
    grid = grid_upper(m)
    positions = sorted(((a, b) for a in range(m) for b in range(a + 1, m)),
                       key=lambda ab: (ab[1], ab[0]))
    layer_masks = [mask_of(layer) for layer in c.layers]
    rank = {x: i for i, x in enumerate(linear_extension(p))}
    by_rank = [sorted(iter_bits(mask), key=rank.__getitem__)
               for mask in layer_masks]
    assignment: dict[tuple[int, int], int] = {}
    nodes = 0
    empty_events: list[tuple[tuple[int, int], tuple]] = []

    def constraints_at(pos: tuple[int, int]):
        a, b = pos
        below = []
        not_below = []
        for (a2, b2), img in assignment.items():
            if a2 <= a and b2 <= b:
                below.append(((a2, b2), img))
            else:  # a2 > a and b2 < b: grid-incomparable
                not_below.append(((a2, b2), img))
        return below, not_below

    def rec(idx: int) -> bool:
        nonlocal nodes
        if idx == len(positions):
            return True
        pos = positions[idx]
        a, _ = pos
        below, not_below = constraints_at(pos)
        mask = layer_masks[a]
        for _, img in below:
            mask &= p.up[img]
        for _, img in not_below:
            mask &= ~(p.down[img] | (1 << img))
        for used in assignment.values():
            mask &= ~(1 << used)
        if not mask:
            empty_events.append((
                pos,
                tuple(("above", gp, img) for gp, img in below)
                + tuple(("not_below", gp, img) for gp, img in not_below)))
            return False
        for x in by_rank[a]:
            if not mask >> x & 1:
                continue
            nodes += 1
            if nodes > budget:
                raise BudgetExhausted(f"ideal-chain embedding passed {budget} nodes")
            for _, img in not_below:
                if p.lt(img, x):
                    raise InternalInconsistency("candidate above an incomparable image")
            assignment[pos] = x
            if rec(idx + 1):
                return True
            del assignment[pos]
        return False

    if not rec(0):
        pos, constraints = min(empty_events, key=lambda e: (e[0][1], e[0][0]))
        return EmbedFailure(pos, constraints)
    mapping = tuple(assignment[(a, b)]
                    for a in range(m) for b in range(a + 1, m))
    return Embedding(grid, p, mapping)


def reference_pivot(p: Poset, t: int) -> tuple[str, int | None, int | None]:
    """``reduce``'s case, pivot and selected mask by the exhaustive rule.

    On the restricted q and its first Inc component C with Cov(C) >= t,
    every up-set and down-set of C and every Cov(Inc_x(q)) is covered cold.
    Among the x whose side reaches ceil((t - Cov(Inc_x)) / 2) the widest
    side wins; a strict > leaves ties to the up side, then the lowest index.
    """
    q = claim1_reduce(p, t).q
    comp = next((c for c in inc_components(p, q)
                 if min_chain_cover(p, c).width >= t), None)
    if comp is None:
        return "case2", None, None
    inc = {x: min_chain_cover(p, q & p.inc_mask(x)).width for x in iter_bits(comp)}
    best = None
    for case, rows in (("case1", p.up), ("case1_dual", p.down)):
        for x in iter_bits(comp):
            side = (rows[x] | 1 << x) & comp
            width = min_chain_cover(p, side).width
            if width >= (t - inc[x] + 1) // 2 and (best is None or width > best[0]):
                best = (width, case, x, side)
    width, case, x0, side = best
    return case if width >= t else "unreduced", x0, side


def reference_claim1(p: Poset, t: int) -> tuple[int, int, dict[int, int]]:
    """Claim 1's (q, antichain, inc_covs) by its greedy rule, every width a
    cold cover of an induced copy: while some x of Q, lowest first, has
    Cov(Q ∩ Inc_x) >= t, x joins the antichain and Q becomes Q ∩ Inc_x;
    then inc_covs maps each x of Q to Cov(Q ∩ Inc_x)."""
    q, chosen = list(range(p.n)), []
    while True:
        cuts = {x: [y for y in q if p.incomparable(x, y)] for x in q}
        widths = {x: min_chain_cover(induced(p, mask_of(cut))[0]).width
                  for x, cut in cuts.items()}
        x = next((x for x in q if widths[x] >= t), None)
        if x is None:
            return mask_of(q), mask_of(chosen), widths
        chosen.append(x)
        q = cuts[x]


def reference_restricted(succ: list[int], mask: int, n: int
                         ) -> tuple[list[int], list[int], int, int]:
    """The matching of the split graph on ``mask`` formed by the links
    (u, succ[u]) inside it, read one mask bit at a time, with the masks of
    its matched left and right vertices."""
    match_l = [-1] * n
    match_r = [-1] * n
    lefts = rights = 0
    for u in iter_bits(mask):
        v = succ[u]
        if v >= 0 and mask >> v & 1:
            match_l[u] = v
            match_r[v] = u
            lefts |= 1 << u
            rights |= 1 << v
    return match_l, match_r, lefts, rights


def reference_top_down(up, mask: int, n: int) -> list[int]:
    """The greedy matching a cold cover starts from, as a successor list:
    the mask's elements, highest first, each linked to the lowest element
    of the mask above it that no earlier element took."""
    members = [x for x in range(n) if mask >> x & 1]
    succ = [-1] * n
    taken = set()
    for u in reversed(members):
        for v in members:
            if v not in taken and up[u] >> v & 1:
                succ[u] = v
                taken.add(v)
                break
    return succ


def reference_ordered(up, chain: int) -> list[int]:
    """A chain mask's elements, lowest first, placed without the matching:
    x sits popcount(up[x] & chain) places from the end, one for each element
    of the chain above it.  Only a chain fills every place, so a mask that
    is none raises."""
    order = [None] * chain.bit_count()
    for x in iter_bits(chain):
        order[~(up[x] & chain).bit_count()] = x
    if None in order:
        raise InternalInconsistency("chain mask is not a chain")
    return order


def cnf_cmp(a: OrdinalCNF, b: OrdinalCNF) -> int:
    """-1, 0 or 1 as a is below, equal to or above b, by CNF order spelled
    out: the first differing exponent decides (compared recursively), then
    its coefficient, and a proper prefix is smaller."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        sub = cnf_cmp(ea, eb)
        if sub:
            return sub
        if ca != cb:
            return -1 if ca < cb else 1
    if len(a.terms) != len(b.terms):
        return -1 if len(a.terms) < len(b.terms) else 1
    return 0
