"""Canonical posets (half-grids, chains, lexicographic sums) and seeded
random instances.

The random model includes each index-ordered pair (i, j), i < j, with
probability p and closes transitively, so instances are acyclic by
construction and fully determined by (n, p, seed).  The pseudo-random stream
is xorshift64* (shifts 12/25/27, output multiplier 0x2545F4914F6CDD1D); a
zero seed is replaced by 0x9E3779B97F4A7C15.  Pairs are drawn in
lexicographic order, one draw per pair, included iff draw < floor(p * 2^64).
Identical (n, p, seed) therefore reproduce the identical relation on every
platform.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import Poset, PreconditionError, from_relations


class SizeError(PreconditionError):
    """Generator parameter out of its legal range."""


class GridLabel(NamedTuple):
    alpha: int
    beta: int


_MASK64 = (1 << 64) - 1


def grid_labels(n: int) -> tuple[GridLabel, ...]:
    """Coordinate labels of the upper half-grid over {0..n-1}, index order."""
    if n < 2:
        raise SizeError("grid needs n >= 2")
    return tuple(GridLabel(a, b) for a in range(n) for b in range(a + 1, n))


def grid_index(n: int, alpha: int, beta: int) -> int:
    """Element index of the pair (alpha, beta) inside grid_upper(n)."""
    if not 0 <= alpha < beta < n:
        raise IndexError(f"({alpha}, {beta}) is not a grid point of [{n}]^2")
    # pairs with first coordinate < alpha, then the offset within row alpha
    before = alpha * (2 * n - alpha - 1) // 2
    return before + (beta - alpha - 1)


def grid_upper(n: int) -> Poset:
    """The upper half of the n-by-n grid: pairs (a, b), a < b, componentwise.

    Element i is the pair ``grid_labels(n)[i]``.  Row (a, b) is built from
    the rows of its upper neighbours (a, b + 1) and (a + 1, b), which come
    later in index order.
    """
    labels = grid_labels(n)
    rows = [0] * len(labels)
    for i in range(len(labels) - 1, -1, -1):
        a, b = labels[i]
        if b + 1 < n:
            rows[i] |= 1 << (i + 1) | rows[i + 1]
        if a + 1 < b:
            j = grid_index(n, a + 1, b)
            rows[i] |= 1 << j | rows[j]
    return Poset(len(labels), tuple(rows))


def chain(n: int) -> Poset:
    if n < 0:
        raise SizeError("element count must be nonnegative")
    full = (1 << n) - 1
    return Poset(n, tuple((full >> (x + 1)) << (x + 1) for x in range(n)))


def antichain(n: int) -> Poset:
    if n < 0:
        raise SizeError("element count must be nonnegative")
    return Poset(n, (0,) * n)


def lex_sum(parts: list[Poset]) -> Poset:
    """Stack the parts along a chain: earlier parts sit entirely below later."""
    if not parts:
        raise SizeError("lexicographic sum needs at least one part")
    total = sum(part.n for part in parts)
    rows = []
    offset = 0
    for part in parts:
        later = ((1 << (total - offset - part.n)) - 1) << (offset + part.n)
        rows += [(row << offset) | later for row in part.up]
        offset += part.n
    return Poset(total, tuple(rows))


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Seeded random poset: include pair (i, j), i < j, with probability p."""
    if not 0.0 <= p <= 1.0:
        raise SizeError("probability must lie in [0, 1]")
    if n < 0:
        raise SizeError("element count must be nonnegative")
    s = (seed & _MASK64) or 0x9E3779B97F4A7C15
    threshold = int(p * (1 << 64))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            s ^= s >> 12
            s ^= (s << 25) & _MASK64
            s ^= s >> 27
            if (s * 0x2545F4914F6CDD1D) & _MASK64 < threshold:
                pairs.append((i, j))
    return from_relations(n, pairs)


def canonical_ideal_chain(n: int, m: int) -> tuple[Poset, tuple[frozenset[int], ...]]:
    """grid_upper(n) with the nested ideals J_a = {(x, b): x <= a}, a < m.

    Each J_a is downward closed and up-directed, and the nesting is strict.
    m = 1 (a single ideal) is allowed as the trivial chain.
    """
    if n < 2:
        raise SizeError("grid needs n >= 2")
    if not 1 <= m < n:
        raise SizeError("ideal count m must satisfy 1 <= m < n")
    # index order runs through the first coordinate, so J_a is an index prefix
    return grid_upper(n), tuple(frozenset(range(grid_index(n, a, n - 1) + 1))
                                for a in range(m))
