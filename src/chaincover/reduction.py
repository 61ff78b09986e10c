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

from dataclasses import dataclass
from typing import NamedTuple

from .core import (InternalInconsistency, Poset, PreconditionError, induced,
                   iter_bits)
from .cover import min_chain_cover
from .incgraph import inc_components, inc_distance_path, interval_cover


class Claim1Result(NamedTuple):
    q: Poset
    q_map: tuple[int, ...]
    antichain: frozenset[int]


def claim1_reduce(p: Poset, t: int) -> Claim1Result:
    """Restrict to the incomparability set of a maximal antichain.

    If no single element x has Cov(Inc_x) >= t the poset is returned whole
    with an empty antichain.  Otherwise a greedy inclusion-maximal antichain
    L with Cov(Inc_L) >= t is grown (lowest index first) and the poset
    induced on Inc_L is returned.  Both postconditions, Cov(Q) >= t and
    Cov(Inc_x(Q)) < t for every x in Q, are exact finite theorems here, so
    they are asserted; maximality of L forbids extending it by any x in Q.
    """
    if t < 1:
        raise PreconditionError("threshold must be at least 1")
    if min_chain_cover(p).width < t:
        raise PreconditionError(f"Cov(P) < {t}")
    seeds = [x for x in range(p.n)
             if min_chain_cover(p, p.inc_mask(x)).width >= t]
    if not seeds:
        return Claim1Result(p, tuple(range(p.n)), frozenset())
    chosen = [seeds[0]]
    inc_l = p.inc_mask(seeds[0])
    while True:
        extended = False
        for y in iter_bits(inc_l):
            tightened = inc_l & p.inc_mask(y)
            if min_chain_cover(p, tightened).width >= t:
                chosen.append(y)
                inc_l = tightened
                extended = True
                break
        if not extended:
            break
    q, q_map = induced(p, iter_bits(inc_l))
    if min_chain_cover(q).width < t:
        raise InternalInconsistency("antichain restriction lost the threshold")
    for x in range(q.n):
        if min_chain_cover(q, q.inc_mask(x)).width >= t:
            raise InternalInconsistency(
                "restriction left an element violating the antichain maximality")
    return Claim1Result(q, q_map, frozenset(chosen))


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

    ``q`` is the antichain-restricted poset with ``q_map`` into the original;
    ``profiles`` measures every element of q.  For the up/down cases,
    ``selected`` is the chosen subposet (mapped by ``selected_map``) with its
    own per-element profile, and ``x0`` is the pivot in original indices.
    """

    case: str
    threshold: int
    antichain: frozenset[int]
    q: Poset
    q_map: tuple[int, ...]
    profiles: dict[int, ElementProfile]
    component_members: tuple[tuple[int, ...], ...]
    component_covs: tuple[int, ...]
    x0: int | None = None
    selected: Poset | None = None
    selected_map: tuple[int, ...] | None = None
    selected_profiles: dict[int, ElementProfile] | None = None


def _profile_map(p: Poset, back: tuple[int, ...]) -> dict[int, ElementProfile]:
    out = {}
    for x in range(p.n):
        out[back[x]] = ElementProfile(
            cov_inc=min_chain_cover(p, p.inc_mask(x)).width,
            cov_minus_up=min_chain_cover(
                p, p.full_mask & ~(p.up[x] | (1 << x))).width,
            cov_minus_down=min_chain_cover(
                p, p.full_mask & ~(p.down[x] | (1 << x))).width,
        )
    return out


def reduce(p: Poset, t: int) -> ReductionOutcome:
    """Antichain restriction, component split, then profiled up/down selection.

    case2 means every Inc component of the restricted poset has Cov < t.
    Finitely that branch never fires (the covering number is the attained
    maximum over components and the restriction step keeps it at or above t)
    but it is kept because the infinite analog reaches it whenever the
    supremum is not attained.  Otherwise a pivot x0 is chosen inside the
    first component still at or above the threshold: among elements whose
    up-set cover reaches ceil((t - Cov(Inc_x)) / 2) the one maximizing
    Cov(↑x0) wins (case1); if the down side dominates the dual selection is
    made (case1_dual).  When the selected subposet itself drops below t the
    case is ``unreduced``.
    """
    q, q_map, antichain = claim1_reduce(p, t)
    decomposition = inc_components(q)
    comp_members = tuple(tuple(q_map[i] for i in part) for part in decomposition.parts)
    comp_covs = tuple(min_chain_cover(sub).width
                      for sub in decomposition.part_posets)
    profiles = _profile_map(q, q_map)
    base = dict(case="case2", threshold=t, antichain=antichain, q=q, q_map=q_map,
                profiles=profiles, component_members=comp_members,
                component_covs=comp_covs)
    target = next((i for i, c in enumerate(comp_covs) if c >= t), None)
    if target is None:
        return ReductionOutcome(**base)
    part = decomposition.parts[target]
    sub = decomposition.part_posets[target]
    up_cov = [min_chain_cover(sub, sub.up[x] | (1 << x)).width
              for x in range(sub.n)]
    down_cov = [min_chain_cover(sub, sub.down[x] | (1 << x)).width
                for x in range(sub.n)]
    inc_cov = [min_chain_cover(sub, sub.inc_mask(x)).width for x in range(sub.n)]
    need = [max(0, (t - inc_cov[x] + 1) // 2) for x in range(sub.n)]
    best_up = max((up_cov[x] for x in range(sub.n) if up_cov[x] >= need[x]),
                  default=-1)
    best_down = max((down_cov[x] for x in range(sub.n) if down_cov[x] >= need[x]),
                    default=-1)
    if best_up < 0 and best_down < 0:
        raise InternalInconsistency("subadditivity guarantees a qualifying pivot")
    if best_up >= best_down:
        x_local = next(x for x in range(sub.n)
                       if up_cov[x] >= need[x] and up_cov[x] == best_up)
        side_mask = sub.up[x_local] | (1 << x_local)
        case = "case1"
    else:
        x_local = next(x for x in range(sub.n)
                       if down_cov[x] >= need[x] and down_cov[x] == best_down)
        side_mask = sub.down[x_local] | (1 << x_local)
        case = "case1_dual"
    selected, sel_local_map = induced(sub, iter_bits(side_mask))
    to_original = tuple(q_map[part[i]] for i in sel_local_map)
    if min_chain_cover(selected).width < t:
        case = "unreduced"
    return ReductionOutcome(
        **{**base, "case": case},
        x0=q_map[part[x_local]],
        selected=selected,
        selected_map=to_original,
        selected_profiles=_profile_map(selected, to_original),
    )


def set_identity_holds(p: Poset, x: int) -> bool:
    """The partition identity P = ↓x ∪ ↑x ∪ Inc_x, checked exactly."""
    up = p.up[x] | (1 << x)
    down = p.down[x] | (1 << x)
    inc = p.inc_mask(x)
    return (up | down | inc == p.full_mask
            and up & down == 1 << x
            and not inc & (up | down))
