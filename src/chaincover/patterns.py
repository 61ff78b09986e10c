"""Induced-subposet embedding search.

Backtracking assigns pattern elements in a fixed linear extension order, so
every already-assigned element is below or incomparable to the current one.
Candidate targets are prefiltered by (up-set size, down-set size,
incomparability degree) signatures, then constrained by bitmask intersection
against the assigned prefix.  Induced-subposet isomorphism is NP-hard in
general; the signatures keep desk-scale instances fast.

The search is deterministic (lowest target index first), so a Found result
is the lexicographically least embedding in assignment order.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalInconsistency, Poset, dual, iter_bits
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
    """Exhaustively recheck injectivity and the order biconditional."""
    q, p, f = e.source, e.target, e.mapping
    if len(f) != q.n or len(set(f)) != q.n:
        return False
    if any(not 0 <= x < p.n for x in f):
        return False
    for a in range(q.n):
        for b in range(q.n):
            if q.lt(a, b) != p.lt(f[a], f[b]):
                return False
    return True


def linear_extension(p: Poset) -> list[int]:
    """Kahn's algorithm, lowest index first: a deterministic topological order."""
    remaining = p.full_mask
    order = []
    while remaining:
        for x in iter_bits(remaining):
            if not p.down[x] & remaining:
                order.append(x)
                remaining &= ~(1 << x)
                break
    return order


def _signatures(p: Poset) -> list[tuple[int, int, int]]:
    return [(p.up[x].bit_count(), p.down[x].bit_count(), p.inc_mask(x).bit_count())
            for x in range(p.n)]


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
    sig_p = _signatures(p)
    sig_q = _signatures(q)
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
    e = Embedding(q, p, tuple(assigned))
    if not validate_embedding(e):
        raise InternalInconsistency("search returned a non-embedding")
    return e


def _height(p: Poset) -> int:
    """Number of elements on a longest chain."""
    best = [0] * p.n
    for x in linear_extension(p):
        below = p.down[x]
        best[x] = 1 + max((best[y] for y in iter_bits(below)), default=0)
    return max(best, default=0)


def embeds_grid(p: Poset, k: int, want_dual: bool = False,
                budget: int | None = None) -> Embedding | None:
    """Specialization of ``embeds`` to the half-grid pattern (or its dual).

    Cheap structural bounds (size, height, width) prune before the generic
    search runs; they hold equally for the dual since all three are self-dual
    quantities.
    """
    # the grid has k(k-1)/2 elements: compare before building it (k < 2
    # falls through to grid_upper, which rejects it)
    if k >= 2 and k * (k - 1) // 2 > p.n:
        return None
    if _height(p) < 2 * k - 3:
        return None
    if cover.min_chain_cover(p).width < k // 2:
        return None
    grid = generators.grid_upper(k)
    pattern = dual(grid) if want_dual else grid
    return embeds(p, pattern, budget)
