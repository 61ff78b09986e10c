"""Exact chain covering number with Dilworth certificates.

A minimum chain cover of a poset equals ``n`` minus a maximum matching in the
split bipartite graph whose edge (u_left, v_right) means u < v; because the
relation is transitively closed, a path cover there is a chain cover here.
The matching also yields a maximum antichain through the minimum-vertex-cover
complement, so every result ships with a certificate pair whose sizes agree.
Everything runs on the up-rows restricted to a bitmask, so the subposet on
any subset is covered in its parent's indices, without an induced copy.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import InternalInconsistency, Poset, iter_bits, mask_of


@dataclass(frozen=True)
class ChainCover:
    """A partition into chains plus a maximum-antichain certificate."""

    chains: tuple[tuple[int, ...], ...]
    certificate: frozenset[int]

    @property
    def width(self) -> int:
        return len(self.chains)


def _max_matching(rows: list[int], mask: int, match_l: list[int],
                  match_r: list[int]) -> tuple[list[int], list[int]]:
    """Hopcroft-Karp on the split graph of ``mask``; lowest index first.

    ``rows[u]`` is the up-row of u already restricted to ``mask``.
    ``match_l`` and ``match_r`` hold a matching of that graph to start from
    (all -1 for none) and are grown in place to a maximum one, which is
    returned: match_l[u] = v iff u is immediately followed by v in some
    chain; -1 where unmatched or outside the mask.  Hopcroft-Karp is correct
    from any starting matching, and from one of size |mask| - k it needs at
    most k - Cov(mask) augmentations.

    Each phase layers the left vertices by a breadth-first search on
    bitmasks: a layer's reach is the OR of its rows, and the mates of the
    newly reached matched right vertices form the next layer.  Then every
    free left vertex, in index order, starts a depth-first search with an
    explicit stack.  From u at layer d the next edge tried is the lowest v
    above the last one tried in ``rows[u] & (free_r | layer_r[d + 1])``,
    where ``layer_r[k]`` holds the right vertices whose mate sits at layer
    k; both masks are updated as vertices fail and paths augment.
    """
    n = len(rows)
    free_l = free_r = mask
    for u, v in enumerate(match_l):
        if v >= 0:
            free_l &= ~(1 << u)
            free_r &= ~(1 << v)
    while True:
        dist = [-1] * n
        level = free_l
        seen_r = 0
        layer_r = [0]
        depth = 0
        while level:
            reach = 0
            for u in iter_bits(level):
                dist[u] = depth
                reach |= rows[u]
            reach &= ~seen_r
            seen_r |= reach
            matched = reach & ~free_r
            layer_r.append(matched)
            level = 0
            for v in iter_bits(matched):
                level |= 1 << match_r[v]
            depth += 1
        if not seen_r & free_r:
            return match_l, match_r
        for root in iter_bits(free_l):
            path = [root]
            rests = [rows[root]]
            while path:
                u = path[-1]
                cand = rests[-1] & (free_r | layer_r[dist[u] + 1])
                if not cand:
                    if match_l[u] >= 0:
                        layer_r[dist[u]] &= ~(1 << match_l[u])
                    dist[u] = -1
                    path.pop()
                    rests.pop()
                    continue
                bit = cand & -cand
                rests[-1] &= ~(2 * bit - 1)
                v = bit.bit_length() - 1
                if free_r & bit:
                    for u in reversed(path):
                        w = match_r[v]
                        if w >= 0:
                            layer_r[dist[w]] &= ~bit
                        else:
                            free_r &= ~bit
                        layer_r[dist[u]] |= bit
                        match_r[v] = u
                        match_l[u], v = v, match_l[u]
                        bit = 1 << v if v >= 0 else 0
                    free_l &= ~(1 << root)
                    break
                w = match_r[v]
                path.append(w)
                rests.append(rows[w])


def _chains_from_matching(mask: int, match_l: list[int], match_r: list[int]
                          ) -> tuple[tuple[int, ...], ...]:
    chains = []
    for head in iter_bits(mask):
        if match_r[head] >= 0:
            continue
        chain = [head]
        while match_l[chain[-1]] >= 0:
            chain.append(match_l[chain[-1]])
        chains.append(tuple(chain))
    return tuple(chains)


def _antichain_from_matching(rows: list[int], mask: int, match_l: list[int],
                             match_r: list[int]) -> int:
    # König: alternate from unmatched left vertices, take the cover complement.
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


def min_chain_cover(p: Poset, mask: int | None = None,
                    hint: ChainCover | None = None) -> ChainCover:
    """Minimum chain cover of the subposet on ``mask``, with a Dilworth witness.

    ``mask`` is a bitmask of p's elements (default: all of them); chains and
    certificate use p's own indices, so no induced copy is made.  A bit at or
    beyond ``p.n`` raises IndexError.  The result is deterministic: vertices
    and adjacency are explored lowest index first, from the empty matching
    or from the hint's.

    ``hint`` is a cover of p on a superset of ``mask``.  Its chains cut to
    ``mask`` are still chains (the relation is closed) and bound the width
    from above; its certificate cut to ``mask`` is an antichain and bounds it
    from below.  When the two bounds meet they are the answer, and no
    matching runs; otherwise the cut chains' links seed Hopcroft-Karp.  The
    witness check runs on both paths, so a hint from another poset or from a
    non-superset gives a verified cover or raises InternalInconsistency.
    """
    if mask is None:
        mask = p.full_mask
    elif mask & ~p.full_mask:
        raise IndexError(f"mask has elements outside 0..{p.n - 1}")
    match_l = [-1] * p.n
    match_r = [-1] * p.n
    if hint is not None:
        cut = []
        for chain in hint.chains:
            kept = [x for x in chain if mask >> x & 1]
            if kept:
                cut.append(tuple(kept))
                for u, v in zip(kept, kept[1:]):
                    match_l[u] = v
                    match_r[v] = u
        cert_mask = mask_of(hint.certificate) & mask
        if cert_mask.bit_count() == len(cut):
            chains = tuple(cut)
            _check_witnesses(p, mask, chains, cert_mask)
            return ChainCover(chains, frozenset(iter_bits(cert_mask)))
    rows = [row & mask for row in p.up]
    _max_matching(rows, mask, match_l, match_r)
    chains = _chains_from_matching(mask, match_l, match_r)
    cert_mask = _antichain_from_matching(rows, mask, match_l, match_r)
    _check_witnesses(p, mask, chains, cert_mask)
    return ChainCover(chains, frozenset(iter_bits(cert_mask)))


def max_antichain(p: Poset) -> frozenset[int]:
    """A maximum antichain; its size equals the chain covering number."""
    return min_chain_cover(p).certificate


def _check_witnesses(p: Poset, mask: int, chains, cert_mask: int) -> None:
    up = p.up
    seen = 0
    for chain in chains:
        prev = -1
        for x in chain:
            if seen >> x & 1:
                raise InternalInconsistency(f"element {x} covered twice")
            seen |= 1 << x
            if prev >= 0 and not up[prev] >> x & 1:
                raise InternalInconsistency(f"chain breaks at {prev},{x}")
            prev = x
    if seen != mask:
        raise InternalInconsistency("chains do not cover every element")
    if cert_mask & ~mask:
        raise InternalInconsistency("certificate leaves the subposet")
    # every comparable pair shows in the up-row of its lower element
    for x in iter_bits(cert_mask):
        if p.up[x] & cert_mask:
            raise InternalInconsistency(f"certificate not an antichain at {x}")
    size = cert_mask.bit_count()
    if size != len(chains):
        raise InternalInconsistency(
            f"width {len(chains)} != antichain size {size}")
