"""Finite-threshold reduction machinery over chain covering numbers.

Starting from a poset whose covering number is at least a threshold t, the
steps here carve out subposets, as bitmasks of it, with verified structural
certificates: first an antichain-restriction step whose postconditions are
exact finite theorems, then a component split, then an up-set (or down-set)
selection guided by the per-element covering profile.

One fidelity boundary is deliberate: with infinite cardinals the up/down
selection provably preserves "covering number at least t"; with finite
thresholds it need not.  The outcome therefore carries the measured profile
and subadditivity certificates instead of asserting that dichotomy, and an
outcome whose selected subposet lost the threshold is labeled ``unreduced``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .core import (InternalInconsistency, Poset, PreconditionError,
                   iter_bits, mask_of)
from .core import induced  # unused here: the reduction.induced tracer site
from .cover import ChainCover, min_chain_cover, reversed_cover
from .incgraph import inc_components, inc_path_below, interval_cover
from .incgraph import inc_distance_path  # unused here: a tracer site


class Claim1Result(NamedTuple):
    """Q = Inc_L and the antichain L as masks of p, Cov(Q ∩ Inc_x) for each
    x of Q, Q's verified cover, and Q's profile (see ``claim1_reduce``)."""

    q: int
    antichain: int
    inc_covs: dict[int, int]
    cover: ChainCover
    minus_up: dict[int, int]
    minus_down: dict[int, int]


def claim1_reduce(p: Poset, t: int) -> Claim1Result:
    """Restrict to the incomparability set of a maximal antichain.

    One greedy loop: Q starts as all of p with P's cover, and while
    Cov(Q) > t a pass covers Q ∩ Inc_x for each x of Q in index order,
    hinted with Q's cover; the first x with Cov(Q ∩ Inc_x) >= t joins the
    antichain L, and Q and its cover become that cut and its cover.  So Q is
    Inc_L for a greedy inclusion-maximal L, or all of p with L empty.

    An antichain of Q ∩ Inc_x extends by x, so Cov(Q ∩ Inc_x) <= Cov(Q) - 1,
    with equality for x in a maximum antichain of Q: a pass accepts an
    element iff Cov(Q) > t, one that does not raises InternalInconsistency,
    and the final Q has Cov(Q) = t and needs no search pass.  Its profile is
    measured instead by two walks along the chains of Q's cover and of
    ``reversed_cover`` of it, in ``dual(p)``: Cov(Q minus ↓[x]) into
    ``minus_down``, Cov(Q minus ↑[x]) into ``minus_up``, and
    Cov(Q ∩ Inc_x) into ``inc_covs``, hinted with x's walk cover on the
    side that loses fewer elements (Q minus ↓[x] when |↑x ∩ Q| <= |↓x ∩ Q|).
    Both postconditions, Cov(Q) >= t (by Q's certificate) and
    Cov(Q ∩ Inc_x) < t for every x in Q, are exact finite theorems
    (maximality of L forbids extending it by any x in Q) and are asserted;
    ``inc_covs`` certifies the second, and ``cover`` is Q's verified cover.
    """
    if t < 1:
        raise PreconditionError("threshold must be at least 1")
    q, cover, chosen = p.full_mask, min_chain_cover(p), 0
    if cover.width < t:
        raise PreconditionError(f"Cov(P) < {t}")
    while cover.width > t:
        for x in iter_bits(q):
            cut = q & p.inc_mask(x)
            cut_cover = min_chain_cover(p, cut, hint=cover)
            if cut_cover.width >= t:
                chosen |= 1 << x
                q, cover = cut, cut_cover
                break
        else:
            raise InternalInconsistency(
                f"a pass over Cov(Q) = {cover.width} > {t} accepted nothing")
    if cover.certificate_mask.bit_count() < t:
        raise InternalInconsistency("antichain restriction lost the threshold")
    down_side = mask_of(x for x in iter_bits(q) if (p.up[x] & q).bit_count()
                        <= (p.down[x] & q).bit_count())
    inc_covs = {}
    minus_down = _walk(cover, p.down, down_side, inc_covs)
    minus_up = _walk(reversed_cover(cover), p.up, q & ~down_side, inc_covs)
    if max(inc_covs.values()) >= t:
        raise InternalInconsistency(
            "restriction left an element violating the antichain maximality")
    return Claim1Result(q, chosen, inc_covs, cover, minus_up, minus_down)


def _walk(cover: ChainCover, below, inc_side: int,
          inc_covs: dict[int, int]) -> dict[int, int]:
    """Cov of ``cover``'s mask minus x and ``below[x]``, the elements below
    x on ``cover.poset``, for each x it covers: an up-set, shrinking as x
    climbs a chain.  So each chain is walked lowest first, and each mask is
    hinted with the cover of the one before it, the first with ``cover``.
    For x in ``inc_side``, Cov of x's mask minus the elements above x, its
    Inc_x, goes into ``inc_covs``, hinted with x's walk cover."""
    p, q = cover.poset, cover.mask
    widths = {}
    for chain in cover.chains:
        hint = cover
        for x in chain:
            hint = min_chain_cover(p, q & ~(below[x] | 1 << x), hint=hint)
            widths[x] = hint.width
            if inc_side >> x & 1:
                inc_covs[x] = min_chain_cover(p, hint.mask & ~p.up[x],
                                              hint=hint).width
    return widths


@dataclass(frozen=True)
class Claim2Report:
    """Verified interval inclusions and cover bound along an Inc path; the
    ``interval`` [x0, y] is a mask of the poset."""

    x0: int
    y: int
    path: tuple[int, ...]
    interval: int
    inclusion1_ok: bool
    inclusion2_ok: bool
    cov_rest: int
    bound: int

    @property
    def bound_ok(self) -> bool:
        return self.cov_rest <= self.bound


def cover_bound_report(p: Poset, x0: int, y: int) -> Claim2Report:
    """For x0 < y in one Inc component: check that

    * the interval [x0, y] lies inside the union of the incomparability sets
      of the interior vertices of the shortest Inc path, and
    * the up-set of x0 minus the up-set of y lies inside [x0, y] ∪ Inc_y,

    and that Cov of that remainder is bounded by the summed incomparability
    covers.  The inclusions are finite theorems; the bound is subadditivity.
    """
    _, path = inc_path_below(p, x0, y)
    interval_mask, uncovered = interval_cover(p, path)
    inclusion1_ok = uncovered == 0
    rest = (p.up[x0] | (1 << x0)) & ~(p.up[y] | (1 << y))
    inclusion2_ok = rest & ~(interval_mask | p.inc_mask(y)) == 0
    cov_rest = min_chain_cover(p, rest).width
    # the interior vertices of the path, then y itself
    bound = sum(min_chain_cover(p, p.inc_mask(v)).width for v in path[1:])
    return Claim2Report(x0, y, tuple(path), interval_mask, inclusion1_ok,
                        inclusion2_ok, cov_rest, bound)


@dataclass(frozen=True)
class ElementProfile:
    cov_inc: int
    cov_minus_up: int
    cov_minus_down: int


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of the full reduction pass at threshold t.

    ``q`` is the antichain-restricted subposet and ``antichain`` the
    antichain it restricts to, both as masks of the original poset.
    ``profiles`` measures every element of q inside q, and
    ``component_covs`` is Cov of each Inc component of q in chain order.
    ``x0`` is the pivot and ``selected`` the chosen subposet as a mask.
    Every index is the original poset's.
    """

    case: str
    threshold: int
    antichain: int
    q: int
    profiles: dict[int, ElementProfile]
    component_covs: tuple[int, ...]
    x0: int
    selected: int


def reduce(p: Poset, t: int) -> ReductionOutcome:
    """Antichain restriction, component split, then profiled up/down selection.

    The infinite analog has a case2, where every Inc component of the
    restricted poset has Cov < t because the supremum is not attained.
    Finitely it never fires: an antichain lies inside one component, so the
    covering number is the maximum over components, and the restriction
    step keeps it at or above t; reaching it raises InternalInconsistency.
    A pivot x0 is chosen inside the first component C at or above the
    threshold: among elements whose up-set cover Cov(↑x ∩ C) reaches
    ceil((t - Cov(Inc_x)) / 2) the one maximizing it wins (case1); if the
    down side dominates strictly the dual selection is made (case1_dual).
    Ties go to the up side, then to the lowest index.  When the selected
    subposet itself drops below t the case is ``unreduced``.  Every subset
    is a mask over p's indices, cut to q where it comes from p's rows.
    The profiles, Cov(Inc_x) included, come from ``claim1_reduce``'s walks,
    and its cover of q hints the component sub-covers, so the one cover
    made without a hint is P's.

    The pivot is picked bound-first: the chains of C's verified cover that
    meet a side bound its width (an up-set of C meets a chain iff it holds
    the chain's top, a down-set iff it holds its bottom), one popcount each.
    Candidates whose bound misses their threshold are dropped.  The rest are
    covered exactly, hinted with C's cover, by descending bound and then in
    the tie order, until a bound falls below the best width, or equals it
    later in the tie order: a width never exceeds its bound, so no candidate
    from there on can win.  The outcome carries q and its profiles, the
    component covers, x0 and the selected subposet.
    """
    q, antichain, inc_covs, whole, minus_up, minus_down = claim1_reduce(p, t)
    comps = inc_components(p, q)
    covers = [min_chain_cover(p, comp, hint=whole) for comp in comps]
    comp_covs = tuple(c.width for c in covers)
    profiles = {x: ElementProfile(inc_covs[x], minus_up[x], minus_down[x])
                for x in iter_bits(q)}
    del minus_up, minus_down  # kept only in the profiles, off the peak below
    hit = next(((m, c) for m, c in zip(comps, covers) if c.width >= t), None)
    if hit is None:
        raise InternalInconsistency("Cov(q) >= t puts a component at t")
    comp, comp_cover = hit
    # the tops of comp_cover's chains bound the up-sets, the bottoms the
    # down-sets
    chains = comp_cover.chains
    tops, bottoms = mask_of(c[-1] for c in chains), mask_of(c[0] for c in chains)
    candidates = []
    for case, rows, ends in (("case1", p.up, tops), ("case1_dual", p.down, bottoms)):
        for x in iter_bits(comp):
            side = (rows[x] | 1 << x) & comp
            need = (t - inc_covs[x] + 1) // 2
            bound = (side & ends).bit_count()
            if bound >= need:
                # rank falls along the tie order, so (width, rank) orders
                # the candidates as the rule does
                candidates.append((bound, -len(candidates), need, case, x, side))
    best = None
    for bound, rank, need, case, x, side in sorted(candidates, reverse=True):
        if best is not None and (bound, rank) < best[:2]:
            break
        width = min_chain_cover(p, side, hint=comp_cover).width
        if width >= need and (best is None or (width, rank) > best[:2]):
            best = (width, rank, case, x, side)
    if best is None:
        raise InternalInconsistency("subadditivity guarantees a qualifying pivot")
    width, _, case, x0, side = best
    return ReductionOutcome(case if width >= t else "unreduced", t, antichain,
                            q, profiles, comp_covs, x0, side)

