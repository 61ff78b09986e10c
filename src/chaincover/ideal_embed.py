"""Constructive embedding of a half-grid from a nested chain of ideals.

Given ideals J_0 ⊂ J_1 ⊂ ... ⊂ J_{m-1} (downward closed, up-directed, strict
nesting, nonempty layers), the search places the grid point (a, b) inside
the layer J_a minus everything earlier, walking positions in the order that
sorts by second coordinate first.  At each position the candidate must sit
above the images of the grid points below it, and must not sit below the
image of any grid-incomparable point placed earlier.  The placed images are
ordered like the grid, so the grid points just below (a, b) bound all the
others and the earlier incomparable points have a greatest one, (b - 2,
b - 1): entering a position costs three mask operations, whatever its
depth.  The reverse comparison (a candidate dominating the image of a
later-layer point) cannot happen at all: the candidate's layer is contained
in an ideal the later layer has already escaped, and ideals are downward
closed.  That impossibility is still checked, by one mask test per
candidate against the images of the incomparable points, and raises
InternalInconsistency.

Unbounded chains make the infinite recursion total; finite instances can
genuinely run out of candidates, so the operation is honestly partial and a
failure reports the blocking position with its accumulated constraints.
The search is iterative, so chains of any length stay within Python's
recursion limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from .core import (InternalInconsistency, Poset, PreconditionError, closed_or,
                   iter_bits, mask_of)
from .generators import grid_upper
from .patterns import BudgetExhausted, Embedding, linear_extension, validate_embedding

# Search nodes embed_from_ideal_chain may spend before BudgetExhausted.
BUDGET = 10 ** 6


class InvalidChain(PreconditionError):
    """The ideal chain violates its invariants; see ``validate_ideal_chain``."""


@dataclass(frozen=True)
class IdealChain:
    poset: Poset
    ideals: tuple[frozenset[int], ...]

    @property
    def layers(self) -> tuple[frozenset[int], ...]:
        """J̌_a: what the a-th ideal adds over the union of the earlier ones."""
        out = []
        seen: frozenset[int] = frozenset()
        for ideal in self.ideals:
            out.append(ideal - seen)
            seen = seen | ideal
        return tuple(out)


@dataclass(frozen=True)
class ChainViolation:
    kind: str
    index: int
    witness: tuple

    def __str__(self) -> str:
        return f"ideal {self.index}: {self.kind} (witness {self.witness})"


def validate_ideal_chain(c: IdealChain) -> tuple[ChainViolation, ...]:
    """Check closure, directedness, strict nesting, nonempty layers, and the
    presence of a cofinal chain (in a finite ideal: a greatest element).

    Report style: every violation is returned with a witness, none for a
    valid chain, and nothing raises.  Each ideal's members are walked in
    ascending order, so the witnesses do not depend on how it was built.
    """
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
        if any(mask & ~(p.down[g] | (1 << g)) == 0 for g in ideal):
            # a greatest element bounds every pair inside the ideal
            continue
        # a finite up-directed set has a greatest element, so some pair
        # has no upper bound in the ideal unless it is empty.  Every upper
        # bound in the ideal lies below one of its maximal elements, so x
        # and y have one iff y lies below one of x's own (those above x).
        # The first unbounded pair takes the first x with a later member
        # outside that down-set, built once per set of own maximal elements
        tops = mask_of(g for g in ideal if not p.up[g] & mask)
        below = cache(lambda own: closed_or(p.down, own) | own)
        for x in members:
            apart = mask & ~(below((p.up[x] | 1 << x) & tops) | (2 << x) - 1)
            if apart:
                violations.append(ChainViolation("not up-directed", a, (
                    x, (apart & -apart).bit_length() - 1)))
                break
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


@dataclass(frozen=True)
class EmbedFailure:
    """First grid position whose candidate set emptied, with its constraints."""

    position: tuple[int, int]
    constraints: tuple[tuple[str, tuple[int, int], int], ...]


def embed_from_ideal_chain(c: IdealChain) -> Embedding | EmbedFailure:
    """Build an induced copy of grid_upper(m) with f(a, b) in layer a.

    Candidates are tried minimal-first in a fixed linear extension of the
    poset; dead ends backtrack chronologically under ``BUDGET`` nodes.
    """
    violations = validate_ideal_chain(c)
    if violations:
        raise InvalidChain("; ".join(map(str, violations)))
    m = len(c.ideals)
    if m < 2:
        raise InvalidChain("need at least two ideals to form a grid")
    p = c.poset
    grid = grid_upper(m)
    positions = sorted(((a, b) for a in range(m) for b in range(a + 1, m)),
                       key=lambda ab: (ab[1], ab[0]))
    layer_masks = [mask_of(layer) for layer in c.layers]
    # the last ideal is the union of the nested ones, a down-set: ranked
    # alone, it keeps the host's order
    union = mask_of(c.ideals[-1])
    rank = {x: i for i, x in enumerate(linear_extension(p, union))}
    by_rank = [sorted(iter_bits(mask), key=rank.__getitem__)
               for mask in layer_masks]
    # position (a, b) sits at index idx(a, b) = b(b - 1)/2 + a
    n_pos = len(positions)
    up, down = p.up, p.down
    budget = BUDGET
    img = [0] * n_pos
    # masks[i]: position i's untried candidates; at[i]: how far it has
    # walked through its layer in rank order; side[i]: the images of the
    # grid-incomparable points placed before it, {(a2, b2): a < a2 < b2 < b};
    # suf[idx(a, b)]: the images of (a, b), (a + 1, b), ..., (b - 1, b),
    # filled for column b - 1 on entering (0, b)
    masks = [0] * n_pos
    at = [0] * n_pos
    side = [0] * n_pos
    suf = [0] * n_pos
    failure = None
    fail_at = n_pos
    nodes = 0
    i = 0
    enter = True
    while i < n_pos:
        a, b = positions[i]
        if enter:
            col = i - a  # idx(0, b)
            prev = col - b + 1  # idx(0, b - 1)
            if not a and b > 1:
                acc = 0
                for j in range(col - 1, prev - 1, -1):
                    acc |= 1 << img[j]
                    suf[j] = acc
            mask = layer_masks[a]
            if a:  # (a - 1, b)
                mask &= up[img[i - 1]]
            if a < b - 1:  # (a, b - 1)
                mask &= up[img[prev + a]]
            if a < b - 2:  # (b - 2, b - 1), the greatest incomparable point
                top = img[col - 1]
                mask &= ~(down[top] | 1 << top)
                side[i] = side[prev + a] | suf[prev + a + 1]
            else:
                side[i] = 0
            if not mask and i < fail_at:
                fail_at = i
                failure = EmbedFailure(positions[i], tuple(
                    ("above", positions[j], img[j]) for j in range(i)
                    if positions[j][0] <= a) + tuple(
                    ("not_below", positions[j], img[j]) for j in range(i)
                    if positions[j][0] > a))
            masks[i], at[i] = mask, 0
        mask = masks[i]
        if not mask:
            if not i:
                return failure
            i -= 1
            enter = False
            continue
        candidates = by_rank[a]
        k = at[i]
        while not mask >> candidates[k] & 1:
            k += 1
        x = candidates[k]
        at[i] = k + 1
        masks[i] = mask ^ 1 << x
        nodes += 1
        if nodes > budget:
            raise BudgetExhausted(f"ideal-chain embedding passed {budget} nodes")
        if down[x] & side[i]:
            # downward closure of the ideals makes this impossible
            raise InternalInconsistency("candidate above an incomparable image")
        img[i] = x
        i += 1
        enter = True
    placed = sorted(zip(positions, img))  # grid index order
    e = Embedding(grid, p, tuple(x for _, x in placed))
    if not validate_embedding(e):
        raise InternalInconsistency("search produced a non-embedding")
    for (a, _), x in placed:
        if not layer_masks[a] >> x & 1:
            raise InternalInconsistency("image escaped its layer")
    return e
