"""Independent brute-force oracles used to pin expected values.

Everything here deliberately avoids the algorithms under test: antichains by
subset scan or branch and bound, chain partitions by direct set-partition search, embeddings by
injection enumeration, purity by downset enumeration.  Sizes are small; the
point is independence, not speed.

The last three functions are the plain reference forms of the library's
bitmask kernels (recursive Hopcroft-Karp, Warshall closure, per-bit
transpose); the kernels must return exactly what they return.
"""

from __future__ import annotations

from collections import deque
from itertools import combinations

from chaincover.core import CycleError, Poset, _find_cycle, iter_bits


def is_antichain(p: Poset, members) -> bool:
    members = list(members)
    return all(not p.comparable(x, y)
               for i, x in enumerate(members) for y in members[i + 1:])


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


def reference_matching(rows: list[int], mask: int) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp with a recursive depth-first search, adjacency visited
    bit by bit, lowest index first."""
    n = len(rows)
    inf = n + 1
    match_l = [-1] * n
    match_r = [-1] * n
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
