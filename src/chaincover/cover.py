"""Exact chain covering number with Dilworth certificates.

A minimum chain cover of a poset equals ``n`` minus a maximum matching in the
split bipartite graph whose edge (u_left, v_right) means u < v; because the
relation is transitively closed, a path cover there is a chain cover here.
The last layering of the matching also yields a maximum antichain (König),
the greatest one, A_max, so every result ships with a certificate pair
whose sizes agree; the least, A_min, is A_max of the dual order.
Everything reads the parent's up-rows and cuts what it uses to a bitmask,
so the subposet on any subset is covered in its parent's indices with no
copy, and a cover holds its chains and its antichain as bitmasks of those
indices.

A cover is made cold (from the empty matching), from a hint (a cover of a
superset on the same poset), or by :func:`reversed_cover`: a verified cover
with its links reversed is a maximum matching of the dual order, so one
Hopcroft-Karp layering on ``dual(p)`` yields that order's cover and A_max,
which is A_min here.  Each way ends in the same chain-link, partition and
antichain checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from operator import or_

from .core import (InternalInconsistency, Poset, PreconditionError, closed_or,
                   dual, iter_bits)


@dataclass(frozen=True)
class ChainCover:
    """Chains and a maximum-antichain certificate as bitmasks of the
    ``poset`` and ``mask`` ``min_chain_cover`` verified them on, with the
    ``matching`` read off: (succ, pred, base mask, matched lefts, matched
    rights), shared by settled cuts; ``chains`` walks them as tuples, lowest
    element first.  Only ``min_chain_cover`` builds one.
    """

    chain_masks: tuple[int, ...]
    certificate_mask: int
    poset: Poset = field(compare=False, repr=False)
    mask: int = field(compare=False, repr=False)
    matching: tuple[list[int], list[int], int, int, int] = field(
        compare=False, repr=False)

    @property
    def width(self) -> int:
        return len(self.chain_masks)

    @property
    def chains(self) -> tuple[tuple[int, ...], ...]:
        """The chains lowest first, walked along the matching's links from
        the bottoms of its base in index order, keeping the mask's
        elements: ``chain_masks``' order, settled cuts included."""
        succ, _, base, _, rights = self.matching
        mask = self.mask
        chains = []
        for u in iter_bits(base & ~rights):
            chain = []
            while u >= 0:
                if mask >> u & 1:
                    chain.append(u)
                u = succ[u]
            if chain:
                chains.append(tuple(chain))
        return tuple(chains)


def _restricted(matching, mask: int) -> tuple[list[int], list[int], int, int]:
    """Copies of a matching's lists and masks keeping the links inside
    ``mask``: one step per element of its base outside ``mask``, whose
    links are undone; the lists are -1 outside the base."""
    succ, pred, base, lefts, rights = matching
    match_l, match_r = succ[:], pred[:]
    rest = base & ~mask
    while rest:
        bit = rest & -rest
        rest ^= bit
        r = bit.bit_length() - 1
        v = match_l[r]
        if v >= 0:
            match_l[r] = match_r[v] = -1
            rights &= ~(1 << v)
        u = match_r[r]
        if u >= 0:
            match_r[r] = match_l[u] = -1
            lefts &= ~(1 << u)
    return match_l, match_r, lefts & mask, rights & mask


def _max_matching(up, mask: int, match_l: list[int], match_r: list[int],
                  free_l: int, free_r: int) -> tuple[int, int, int]:
    """Hopcroft-Karp on the split graph of ``mask``; lowest index first.

    ``up[u]`` is the closed up-row of u, read only for u in ``mask``.
    ``match_l`` and ``match_r`` hold a matching inside the mask to start
    from (all -1 for none; match_l[u] = v iff v follows u in a chain) and
    are grown in place to a maximum one.  ``free_l`` and ``free_r`` are the
    mask's vertices it leaves free on each side.  Returns König's antichain
    A_max (the left vertices the last layering reaches minus the right
    ones), then ``free_l, free_r``.

    A layer's reach is ``closed_or`` of its rows, cut to the mask (the rows
    are closed, so that equals ORing the cut rows).  A depth-first search
    steps from path depth d only to a free right vertex or one whose mate
    sits at layer d + 1 (``layer_r[d + 1]``), both in the mask, so depth is
    layer, and roots stop once every layered free right vertex is matched.
    """
    while True:
        level = free_l
        seen_l = seen_r = 0
        layer_r = [0]
        while level:
            seen_l |= level
            reach = closed_or(up, level) & mask & ~seen_r
            seen_r |= reach
            matched = reach & ~free_r
            layer_r.append(matched)
            level = 0
            while matched:
                bit = matched & -matched
                matched ^= bit
                level |= 1 << match_r[bit.bit_length() - 1]
        if not seen_r & free_r:
            return seen_l & ~seen_r, free_l, free_r
        for root in iter_bits(free_l):
            if not seen_r & free_r:
                break
            path = [root]
            rests = [up[root]]
            d = 0
            while d >= 0:
                cand = rests[d] & (free_r | layer_r[d + 1])
                if not cand:
                    if d:
                        layer_r[d] &= ~(1 << match_l[path[d]])
                    path.pop()
                    rests.pop()
                    d -= 1
                    continue
                bit = cand & -cand
                rests[d] &= ~(2 * bit - 1)
                v = bit.bit_length() - 1
                if free_r & bit:
                    free_r &= ~bit
                    for u in reversed(path):
                        layer_r[d] |= bit
                        match_r[v] = u
                        match_l[u], v = v, match_l[u]
                        if v >= 0:
                            bit = 1 << v
                            layer_r[d] &= ~bit
                        d -= 1
                    free_l &= ~(1 << root)
                    break
                w = match_r[v]
                path.append(w)
                rests.append(up[w])
                d += 1


def _chains_from_matching(up, heads: int, match_l: list[int]
                          ) -> tuple[int, ...]:
    """One mask per chain, walked from each head in index order, with each
    link checked against ``up`` as it is walked."""
    chains = []
    for head in iter_bits(heads):
        chain = 1 << head
        u = head
        while (v := match_l[u]) >= 0:
            bit = 1 << v
            if not up[u] & bit:
                raise InternalInconsistency(f"chain breaks at {u},{v}")
            chain |= bit
            u = v
        chains.append(chain)
    return tuple(chains)


def min_chain_cover(p: Poset, mask: int | None = None,
                    hint: ChainCover | None = None) -> ChainCover:
    """Minimum chain cover of the subposet on ``mask``, with a Dilworth witness.

    ``mask`` is a bitmask of p's elements (default: all of them); chains and
    certificate use p's own indices, so no induced copy is made, and only
    the mask's rows of ``p.up`` are read, uncopied.  A bit at or beyond
    ``p.n`` raises IndexError.  The result is deterministic: vertices and
    adjacency are explored lowest index first, from the empty matching or
    from the hint's.

    ``hint`` is a cover this function returned for p itself (the same
    object; any other raises PreconditionError), on a superset of ``mask``.
    Its chains cut to ``mask``, one AND each, are still chains (the relation
    is closed) and bound the width from above; its certificate A_max cut to
    ``mask`` bounds it from below.  An up-set of the hint's subposet keeps
    its width iff it holds A_max (a down-set is an up-set of ``dual(p)``),
    and one cut chain has any one element as its antichain.  When a bound
    meets the cut chain count, the cut pair is the answer and no matching
    runs; its check is one word test, ``mask`` inside the hint's.
    Otherwise the hint's matching less the links of the elements ``mask``
    drops (the cut chains' links if it meets each in an interval) seeds
    Hopcroft-Karp and the result takes the full check, so a hint on a
    non-superset gives a verified cover or raises InternalInconsistency.
    """
    if mask is None:
        mask = p.full_mask
    elif mask & ~p.full_mask:
        raise IndexError(f"mask has elements outside 0..{p.n - 1}")
    if hint is None:
        match_l, match_r, lefts, rights = [-1] * p.n, [-1] * p.n, 0, 0
    else:
        if hint.poset is not p:
            raise PreconditionError("hint was not verified on this poset")
        cut = tuple([c for chain in hint.chain_masks if (c := chain & mask)])
        cert = hint.certificate_mask & mask
        if cert.bit_count() < len(cut) == 1:
            # one cut chain: any one element is a maximum antichain
            cert = mask & -mask
        if cert.bit_count() == len(cut):
            if mask & ~hint.mask:
                raise InternalInconsistency("hint does not cover the subposet")
            return ChainCover(cut, cert, p, mask, hint.matching)
        match_l, match_r, lefts, rights = _restricted(hint.matching, mask)
    return _matched(p, mask, match_l, match_r, lefts, rights)


def reversed_cover(cover: ChainCover) -> ChainCover:
    """The minimum chain cover of ``cover``'s mask in ``dual(cover.poset)``,
    seeded with ``cover``'s links inside its mask, reversed.

    Reversed, the links of a maximum matching are one of the dual's split
    graph, so on a verified cover Hopcroft-Karp augments nothing: one
    layering gives the dual's A_max (A_min of ``cover.poset``), and the
    result takes the same checks as ``min_chain_cover``'s.
    """
    match_l, match_r, lefts, rights = _restricted(cover.matching, cover.mask)
    return _matched(dual(cover.poset), cover.mask, match_r, match_l, rights,
                    lefts)


def _matched(p: Poset, mask: int, match_l: list[int], match_r: list[int],
             lefts: int, rights: int) -> ChainCover:
    """The verified cover of ``mask`` grown from the seed matching given by
    ``match_l``, ``match_r`` and its matched masks."""
    up = p.up
    cert, free_l, free_r = _max_matching(up, mask, match_l, match_r,
                                         mask & ~lefts, mask & ~rights)
    chains = _chains_from_matching(up, free_r, match_l)
    _check_partition(chains, mask)
    _check_antichain(up, mask, cert, len(chains))
    return ChainCover(chains, cert, p, mask,
                      (match_l, match_r, mask, mask & ~free_l, mask & ~free_r))


def _check_partition(chains: tuple[int, ...], mask: int) -> None:
    if (sum([c.bit_count() for c in chains]) != mask.bit_count()
            or reduce(or_, chains, 0) != mask):
        raise InternalInconsistency("chains do not partition the subposet")


def _check_antichain(up, mask: int, cert: int, width: int) -> None:
    if cert & ~mask:
        raise InternalInconsistency("certificate leaves the subposet")
    # every comparable pair shows in the up-row of its lower element
    for x in iter_bits(cert):
        if up[x] & cert:
            raise InternalInconsistency(f"certificate not an antichain at {x}")
    size = cert.bit_count()
    if size != width:
        raise InternalInconsistency(f"width {width} != antichain size {size}")
