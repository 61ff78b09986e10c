"""Induced-subposet embedding search.

Backtracking assigns pattern elements in a fixed linear extension order, so
each assigned element is below or incomparable to the current one, and its
image restricts the current position to its ``up`` or its ``inc`` row.
Induced-subposet isomorphism is NP-hard in general; popcount signatures
keep desk-scale instances fast.  The search is an iterative depth-first
search on bitmasks.  Each position caches its candidates under the images
of the earlier positions but the two just before it, rebuilt only when the
one two before it is entered again, so entering a position costs one AND
and each of its candidates one more.  A candidate tried is one node of the
budget.  The search is deterministic (lowest target index first), so a
Found result is the lexicographically least embedding in assignment order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import (InternalInconsistency, Poset, PreconditionError, closed_or,
                   dual, iter_bits, mask_of)
from . import cover
from . import generators


class BudgetExhausted(RuntimeError):
    """Node budget hit before the search completed; result is Unknown."""


@dataclass(frozen=True)
class Embedding:
    """An injective map witnessing an induced copy of ``source`` in ``target``."""

    source: Poset
    target: Poset
    mapping: tuple[int, ...]


def validate_embedding(e: Embedding) -> bool:
    """Exhaustively recheck injectivity and the order biconditional.

    Given injectivity, a in q lies below exactly the b with f(b) above f(a)
    iff ``p.up[f(a)]`` restricted to the image is the image of ``q.up[a]``;
    one row test per a covers all q.n^2 pairs.
    """
    q, p, f = e.source, e.target, e.mapping
    if len(f) != q.n or len(set(f)) != q.n:
        return False
    if any(not 0 <= x < p.n for x in f):
        return False
    image = mask_of(f)
    return all(p.up[f[a]] & image == mask_of(f[b] for b in iter_bits(q.up[a]))
               for a in range(q.n))


def linear_extension(p: Poset, mask: int | None = None) -> list[int]:
    """Kahn's algorithm, lowest index first: a deterministic topological
    order of ``mask``'s elements (default: all of them).  A down-set's order
    is the whole poset's cut to it: its elements wait on none outside it."""
    remaining = p.full_mask if mask is None else mask
    order = []
    while remaining:
        for x in iter_bits(remaining):
            if not p.down[x] & remaining:
                order.append(x)
                remaining &= ~(1 << x)
                break
    return order


def _signatures(p: Poset) -> tuple[list[int], list[int], list[int]]:
    """|up[x]|, |down[x]| and the number of elements incomparable to x, for
    every x: n - 1 - |up[x]| - |down[x]|."""
    ups = [row.bit_count() for row in p.up]
    downs = [row.bit_count() for row in p.down]
    return ups, downs, [p.n - 1 - u - d for u, d in zip(ups, downs)]


def _at_least(counts: list[int]) -> list[int]:
    """table[t]: the mask of the x with counts[x] >= t, for t < len(counts)
    (every count is below it): one bucket per count, then a suffix OR."""
    table = [0] * len(counts)
    for x, c in enumerate(counts):
        table[c] |= 1 << x
    for t in range(len(table) - 2, -1, -1):
        table[t] |= table[t + 1]
    return table


def embeds(p: Poset, q: Poset, budget: int | None = None) -> Embedding | None:
    """Search for an induced copy of q inside p.

    Returns a validated Embedding, or None for an exact NotFound (the search
    is complete).  With ``budget`` set, raises BudgetExhausted if that many
    candidate assignments were tried without resolving the question.
    """
    if q.n == 0:
        return Embedding(q, p, ())
    if q.n > p.n:
        return None
    ups, downs, incs = map(_at_least, _signatures(p))
    uq, dq, iq = _signatures(q)
    order = linear_extension(q)
    # first[pos]: the targets whose signature admits position pos
    first = []
    for a in order:
        mask = ups[uq[a]] & downs[dq[a]] & incs[iq[a]]
        if not mask:
            return None
        first.append(mask)
    last = q.n - 1
    up = p.up
    inc = [p.full_mask & ~(row | down | 1 << x)
           for x, (row, down) in enumerate(zip(up, p.down))]
    # below[j]: bit i set when position i < j lies below position j in q
    at = [0] * q.n
    for i, qx in enumerate(order):
        at[qx] = i
    below = [mask_of(at[qy] for qy in iter_bits(q.down[qx])) for qx in order]
    # step[i], skip[i]: the rows position i's image restricts i + 1, i + 2 to
    step = [up if below[i + 1] >> i & 1 else inc for i in range(last)]
    skip = [up if below[i + 2] >> i & 1 else inc for i in range(last - 1)]
    img = [0] * q.n
    # rests[pos]: untried candidates of position pos; pre[pos]: the
    # candidates of position pos + 1 under the images of positions < pos;
    # base[j]: those of position j under the images of positions < j - 2,
    # None once position j - 2 is entered (no image it reads changes
    # otherwise).  Neither up[x] nor inc[x] contains x, so these masks never
    # offer an image twice.
    rests = [0] * q.n
    pre = [0] * q.n
    base = [None] * (q.n + 1)
    rests[0] = first[0]
    if last:
        pre[0] = first[1]
    nodes = 0
    pos = 0
    while True:
        rest = rests[pos]
        if not rest:
            if not pos:
                return None
            pos -= 1
            continue
        bit = rest & -rest
        rests[pos] = rest ^ bit
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExhausted(f"embedding search passed {budget} nodes")
        img[pos] = x = bit.bit_length() - 1
        if pos == last:
            break
        nxt = pre[pos] & step[pos][x]
        if not nxt:
            continue
        pos += 1
        rests[pos] = nxt
        if pos < last:
            base[pos + 2] = None
            mask = base[pos + 1]
            if mask is None:
                mask = first[pos + 1]
                rows = below[pos + 1]
                for i in range(pos - 1):
                    mask &= (up if rows >> i & 1 else inc)[img[i]]
                base[pos + 1] = mask
            pre[pos] = mask = mask & skip[pos - 1][img[pos - 1]]
            if not mask:
                # every candidate of pos is a dead end: one node each
                nodes += nxt.bit_count()
                if budget is not None and nodes > budget:
                    raise BudgetExhausted(f"embedding search passed {budget} nodes")
                rests[pos] = 0
    mapping = [0] * q.n
    for qx, x in zip(order, img):
        mapping[qx] = x
    e = Embedding(q, p, tuple(mapping))
    if not validate_embedding(e):
        raise InternalInconsistency("search returned a non-embedding")
    return e


def _height(p: Poset, at_most: int) -> int:
    """Number of elements on a longest chain, or ``at_most`` if that is less.

    Level k + 1 is the set of elements above some element of level k, level
    1 being everything; the height is the number of nonempty levels.  The
    walk stops after ``at_most`` levels.
    """
    height = 0
    level = p.full_mask
    while level and height < at_most:
        height += 1
        level = closed_or(p.up, level)
    return height


def embeds_grid(p: Poset, k: int, want_dual: bool = False,
                budget: int | None = None) -> Embedding | None:
    """Specialization of ``embeds`` to the half-grid pattern (or its dual).

    Cheap structural bounds (size, height, width) prune before the generic
    search runs; they hold equally for the dual since all three are self-dual
    quantities.  The width bound Cov(P) >= k // 2 is first read off the
    maximal elements, an antichain, so their count bounds Cov(P) from below
    (Dilworth); the full cover runs only when there are fewer of them.  A
    budget of 0 answers from these bounds or raises BudgetExhausted; a
    negative one is a PreconditionError.  For finite k the half-grid is
    self-dual, by (a, b) -> (k-1-b, k-1-a), so ``want_dual`` asks the same
    yes/no question; only the embedding found can differ.
    """
    if budget is not None and budget < 0:
        raise PreconditionError(f"budget must be nonnegative, got {budget}")
    # the grid has k(k-1)/2 elements: compare before building it (k < 2
    # falls through to grid_upper, which rejects it)
    if k >= 2 and k * (k - 1) // 2 > p.n:
        return None
    if _height(p, 2 * k - 3) < 2 * k - 3:
        return None
    if (cover.min_chain_cover(p, p.maximal_mask).width < k // 2
            and cover.min_chain_cover(p).width < k // 2):
        return None
    return embeds(p, _grid_pattern(k, want_dual), budget)


@lru_cache(maxsize=8)
def _grid_pattern(k: int, want_dual: bool) -> Poset:
    """The half-grid pattern of ``embeds_grid``, built once per (k, side)."""
    grid = generators.grid_upper(k)
    return dual(grid) if want_dual else grid
