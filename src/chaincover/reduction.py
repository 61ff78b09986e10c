"""Finite-threshold reduction machinery over chain covering numbers.

Starting from a poset whose covering number is at least a threshold t, the
steps here carve out induced subposets with verified structural certificates:
first an antichain-restriction step whose postconditions are exact finite
theorems, then a component split, then an up-set (or down-set) selection
guided by the per-element covering profile.

One fidelity boundary is deliberate: with infinite cardinals the up/down
selection provably preserves "covering number at least t"; with finite
thresholds it need not.  The outcome therefore carries the measured profile
and subadditivity certificates instead of asserting that dichotomy, and an
outcome whose selected subposet lost the threshold is labeled ``unreduced``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import NamedTuple

from .core import (InternalInconsistency, Poset, PreconditionError, induced,
                   iter_bits)
from .cover import min_chain_cover
from .incgraph import inc_components, inc_distance_path, interval_cover


class Claim1Result(NamedTuple):
    q: Poset
    q_map: tuple[int, ...]
    antichain: frozenset[int]
    inc_covs: tuple[int, ...]


def claim1_reduce(p: Poset, t: int) -> Claim1Result:
    """Restrict to the incomparability set of a maximal antichain.

    If no single element x has Cov(Inc_x) >= t the poset is returned whole
    with an empty antichain.  Otherwise a greedy inclusion-maximal antichain
    L with Cov(Inc_L) >= t is grown (lowest index first, from the first x
    that qualifies) and the poset induced on Inc_L is returned.  Both
    postconditions, Cov(Q) >= t and Cov(Inc_x(Q)) < t for every x in Q, are
    exact finite theorems here, so they are asserted; maximality of L
    forbids extending it by any x in Q.  ``inc_covs[x]`` is Cov(Inc_x(Q)),
    the certificate of the second postcondition.
    """
    if t < 1:
        raise PreconditionError("threshold must be at least 1")
    if min_chain_cover(p).width < t:
        raise PreconditionError(f"Cov(P) < {t}")
    inc_covs = []
    for seed in range(p.n):
        inc_l = p.inc_mask(seed)
        width = min_chain_cover(p, inc_l).width
        if width >= t:
            break
        inc_covs.append(width)
    else:
        return Claim1Result(p, tuple(range(p.n)), frozenset(), tuple(inc_covs))
    chosen = [seed]
    while True:
        for y in iter_bits(inc_l):
            tightened = inc_l & p.inc_mask(y)
            if min_chain_cover(p, tightened).width >= t:
                chosen.append(y)
                inc_l = tightened
                break
        else:
            break
    q, q_map = induced(p, iter_bits(inc_l))
    if min_chain_cover(q).width < t:
        raise InternalInconsistency("antichain restriction lost the threshold")
    inc_covs = tuple(min_chain_cover(q, q.inc_mask(x)).width for x in range(q.n))
    if max(inc_covs) >= t:
        raise InternalInconsistency(
            "restriction left an element violating the antichain maximality")
    return Claim1Result(q, q_map, frozenset(chosen), inc_covs)


@dataclass(frozen=True)
class Claim2Report:
    """Verified interval inclusions and cover bound along an Inc path."""

    x0: int
    y: int
    path: tuple[int, ...]
    interval: frozenset[int]
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
    if not p.lt(x0, y):
        raise PreconditionError(f"{x0} < {y} must hold")
    hop = inc_distance_path(p, x0, y)
    if hop is None:
        raise PreconditionError(
            f"{x0} and {y} lie in different incomparability components")
    _, path = hop
    interval_mask, uncovered = interval_cover(p, path)
    inclusion1_ok = uncovered == 0
    rest = (p.up[x0] | (1 << x0)) & ~(p.up[y] | (1 << y))
    inclusion2_ok = rest & ~(interval_mask | p.inc_mask(y)) == 0
    cov_rest = min_chain_cover(p, rest).width
    # the interior vertices of the path, then y itself
    bound = sum(min_chain_cover(p, p.inc_mask(v)).width for v in path[1:])
    return Claim2Report(x0, y, tuple(path),
                        frozenset(iter_bits(interval_mask)),
                        inclusion1_ok, inclusion2_ok, cov_rest, bound)


@dataclass(frozen=True)
class ElementProfile:
    cov_inc: int
    cov_minus_up: int
    cov_minus_down: int


@dataclass(frozen=True)
class ReductionOutcome:
    """Result of the full reduction pass at threshold t.

    ``q`` is the antichain-restricted poset with ``q_map`` into the original,
    and ``antichain`` the antichain it restricts to.  ``profiles`` measures
    every element of q inside q, keyed by original indices, and
    ``component_covs`` is Cov of each Inc component of q in chain order.  For
    the up/down cases, ``x0`` is the pivot and ``selected_map`` the chosen
    subposet, both in original indices.
    """

    case: str
    threshold: int
    antichain: frozenset[int]
    q: Poset
    q_map: tuple[int, ...]
    profiles: dict[int, ElementProfile]
    component_covs: tuple[int, ...]
    x0: int | None = None
    selected_map: tuple[int, ...] | None = None


def _profiles(q: Poset, q_map: tuple[int, ...],
              inc_covs: tuple[int, ...]) -> dict[int, ElementProfile]:
    """Each x of q profiled inside q, keyed by ``q_map[x]``, with Cov(Inc_x)
    from claim 1's certificate ``inc_covs``."""
    full = q.full_mask
    return {q_map[x]: ElementProfile(
                inc_covs[x], min_chain_cover(q, full & ~(q.up[x] | 1 << x)).width,
                min_chain_cover(q, full & ~(q.down[x] | 1 << x)).width)
            for x in range(q.n)}


def reduce(p: Poset, t: int) -> ReductionOutcome:
    """Antichain restriction, component split, then profiled up/down selection.

    case2 means every Inc component of the restricted poset has Cov < t.
    Finitely that branch never fires (the covering number is the attained
    maximum over components and the restriction step keeps it at or above t)
    but it is kept because the infinite analog reaches it whenever the
    supremum is not attained.  Otherwise a pivot x0 is chosen inside the
    first component C still at or above the threshold: among elements whose
    up-set cover Cov(↑x ∩ C) reaches ceil((t - Cov(Inc_x)) / 2) the one
    maximizing it wins (case1); if the down side dominates strictly the dual
    selection is made (case1_dual).  Ties go to the up side, then to the
    lowest index.  When the selected subposet itself drops below t the case
    is ``unreduced``.  Every subset is a mask over q's indices, and
    Cov(Inc_x) comes from the restriction's certificate.  The outcome carries
    q and its profiles, the component covers and, outside case2, x0 and the
    elements of the selected subposet.
    """
    q, q_map, antichain, inc_covs = claim1_reduce(p, t)
    comps = inc_components(q)
    comp_covs = tuple(min_chain_cover(q, comp).width for comp in comps)
    out = ReductionOutcome("case2", t, antichain, q, q_map,
                           _profiles(q, q_map, inc_covs), comp_covs)
    comp = next((m for m, c in zip(comps, comp_covs) if c >= t), 0)
    if not comp:
        return out
    best = None
    for case, rows in (("case1", q.up), ("case1_dual", q.down)):
        for x in iter_bits(comp):
            side = (rows[x] | 1 << x) & comp
            width = min_chain_cover(q, side).width
            if (width >= (t - inc_covs[x] + 1) // 2
                    and (best is None or width > best[0])):
                best = (width, case, x, side)
    if best is None:
        raise InternalInconsistency("subadditivity guarantees a qualifying pivot")
    width, case, x0, side = best
    return replace(out, case=case if width >= t else "unreduced", x0=q_map[x0],
                   selected_map=tuple(q_map[i] for i in iter_bits(side)))

