"""Incomparability-graph structure: components, the lexicographic-sum
decomposition, and the incomparability metric.

Every poset is the lexicographic sum of the posets induced on the connected
components of its incomparability graph, indexed by a chain.  Components and
distances share one breadth-first walk, level by level, over incomparability
rows computed on demand from the relation bitrows; the incomparability graph
can be dense, so no edge list is materialized.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

from .core import (InternalInconsistency, Poset, PreconditionError, iter_bits,
                   mask_of)
from .core import induced  # unused here: the incgraph.induced tracer site


class MalformedDecomposition(ValueError):
    """A hand-built decomposition does not describe a lexicographic sum."""


def _levels(p: Poset, start: int, mask: int) -> Iterator[int]:
    """The breadth-first levels of Inc within ``mask`` from the elements of
    ``start``, nearest first and ``start`` itself first, as bitmasks; each
    element's Inc row is read once, when the level after its own is asked for."""
    level = seen = start
    while level:
        yield level
        reach = 0
        for v in iter_bits(level):
            reach |= p.inc_mask(v)
        level = reach & mask & ~seen
        seen |= level


def inc_components(p: Poset, mask: int | None = None) -> list[int]:
    """The connected components of Inc of the subposet on ``mask`` (default:
    all of p) as bitmasks, ordered as a chain: everything in an earlier
    component lies below everything in a later one.  A bit at or beyond
    ``p.n`` raises IndexError.

    The order is fixed by the up-count of one representative each; the
    uniform cross-component comparability is then rechecked exhaustively,
    each element's down-row against everything before its component, and
    a failure raises InternalInconsistency since it can only mean a bug in
    the relation.
    """
    rest = p.full_mask if mask is None else mask
    comps = []
    while rest:
        comp = 0
        for level in _levels(p, rest & -rest, rest):
            comp |= level
        comps.append(comp)
        rest &= ~comp
    # an earlier component's elements have strictly more elements above them
    comps.sort(key=lambda c: -p.up[(c & -c).bit_length() - 1].bit_count())
    below = 0
    for comp in comps:
        for x in iter_bits(comp):
            if p.down[x] & below != below:
                raise InternalInconsistency(
                    "component order is not uniform; the relation is "
                    "not transitively closed")
        below |= comp
    return comps


def recompose(n: int, parts: list[int], part_posets: list[Poset]) -> Poset:
    """Rebuild the lexicographic sum on n elements whose i-th part is the
    mask ``parts[i]``, ordered by ``part_posets[i]``; local element k of a
    part is its k-th lowest bit, and earlier parts lie below later ones."""
    seen = 0
    for pm, sub in zip(parts, part_posets):
        if sub.n != pm.bit_count():
            raise MalformedDecomposition("part poset size differs from part")
        if pm & seen:
            raise MalformedDecomposition("parts are not disjoint")
        seen |= pm
    if seen != (1 << n) - 1:
        raise MalformedDecomposition("parts do not partition the elements")
    rows = [0] * n
    later = (1 << n) - 1
    for pm, sub in zip(parts, part_posets):
        later &= ~pm
        members = list(iter_bits(pm))
        for local, orig in enumerate(members):
            rows[orig] = later | mask_of(members[other]
                                         for other in iter_bits(sub.up[local]))
    return Poset(n, tuple(rows))


def inc_distance_path(p: Poset, x: int, y: int) -> tuple[int, list[int]] | None:
    """Shortest path between x and y in the incomparability graph.

    Returns (distance, path) where distance counts edges, or None when the
    endpoints lie in different components (the poset analog of an infinite
    distance).  Among minimum-length paths the lexicographically least one is
    returned, so reports are reproducible.
    """
    for v in (x, y):
        if not 0 <= v < p.n:
            raise IndexError(f"element {v} out of range")
    levels = []
    for level in _levels(p, 1 << y, p.full_mask):
        if level >> x & 1:
            break
        levels.append(level)
    else:
        return None
    path = [x]
    for level in reversed(levels):
        step = p.inc_mask(path[-1]) & level
        path.append((step & -step).bit_length() - 1)
    return len(levels), path


def inc_path_below(p: Poset, x: int, y: int) -> tuple[int, list[int]]:
    """inc_distance_path(p, x, y), for x < y in one Inc component only."""
    if not p.lt(x, y):
        raise PreconditionError(f"{x} < {y} must hold in the poset")
    hop = inc_distance_path(p, x, y)
    if hop is None:
        raise PreconditionError(
            f"{x} and {y} lie in different incomparability components")
    return hop


def interval_cover(p: Poset, path) -> tuple[int, int]:
    """The interval [path[0], path[-1]] as a bitmask, and the part of it
    incomparable to no interior vertex of ``path`` (0 when the interior's
    incomparability sets cover the interval)."""
    x, y = path[0], path[-1]
    interval = (p.up[x] | (1 << x)) & (p.down[y] | (1 << y))
    union = 0
    for v in path[1:-1]:
        union |= p.inc_mask(v)
    return interval, interval & ~union


@dataclass(frozen=True)
class MetricReport:
    """Checked consequences of the incomparability metric for one pair x < y."""

    x: int
    y: int
    d: int
    path: tuple[int, ...]
    item1_ok: bool
    item2_ok: bool
    violations: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return self.item1_ok and self.item2_ok


def check_metric_lemma(p: Poset, x: int, y: int) -> MetricReport:
    """Verify, along the shortest incomparability path from x to y (x < y):

    1. far-apart path vertices are increasingly ordered (x_i < x_j once
       j >= i + 2), and
    2. the interval [x, y] is covered by the incomparability sets of the
       interior path vertices.

    Both are finite theorems; a False anywhere signals an implementation bug.
    """
    d, path = inc_path_below(p, x, y)
    violations = []
    for i in range(len(path)):
        for j in range(i + 2, len(path)):
            if not p.lt(path[i], path[j]):
                violations.append(f"path[{i}]={path[i]} not below path[{j}]={path[j]}")
    item1_ok = not violations
    _, uncovered = interval_cover(p, path)
    item2_ok = uncovered == 0
    for z in iter_bits(uncovered):
        violations.append(f"interval element {z} not incomparable to any interior vertex")
    return MetricReport(x, y, d, tuple(path), item1_ok, item2_ok, tuple(violations))


def to_dot(p: Poset, include_inc: bool = False) -> Iterator[str]:
    """DOT rendering of the Hasse diagram, nodes named by index, one line
    at a time with no newline; incomparability edges dashed, each Inc row
    read in one pass over its binary digits.  Lines are made as they are
    read, so the Inc edges of a wide poset are never all held at once."""
    yield "digraph poset {"
    yield "  rankdir=BT;"
    for x in range(p.n):
        yield f'  v{x} [label="{x}"];'
    for u, v in p.cover_pairs():
        yield f"  v{u} -> v{v};"
    if include_inc:
        for x in range(p.n):
            y = x
            for gap in bin(p.inc_mask(x) >> x + 1)[:1:-1].split("1")[:-1]:
                y += len(gap) + 1
                yield f"  v{x} -> v{y} [style=dashed, dir=none];"
    yield "}"
