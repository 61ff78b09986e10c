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

The stream is evaluated in lanes, not one draw at a time (one code path for
every n).  The state update is linear over F2, so a jump of m steps is one
64 x 64 bit matrix (Haramoto et al., 2008); its byte tables, built once per
process, give the start states of lanes of m = 128 draws each.  Up to 1024
lanes sit in the 128-bit slots of one integer and step together: the
xorshift masked to each slot's low 64 bits, then the output multiply, which
cannot carry out of a slot.  A draw's keep bit is bit 64 of
2^64 - 1 + threshold - (the product's low 64 bits).  Draw t of lane l is put
at bit 128 l + 64 + t, so a block of lanes reads in stream order as one
binary string; row i's n - 1 - i draws are its adjacency mask, and the rows
close in reverse index order.
"""

from __future__ import annotations

from array import array
from functools import cache, reduce
from operator import getitem, xor
from typing import NamedTuple

from .core import Poset, PreconditionError, closed_or
from .core import from_relations  # noqa: F401  perfbench/tracer.py wraps this name


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


_STAR = 0x2545F4914F6CDD1D  # xorshift64*'s output multiplier
# Draws per lane (one bit each in its 128-bit slot) and lanes per block: a
# block's integers are 16 KB each and its string 128 KB.
_LANE = 128
_LANES = 1024


def _in_slots(value: int, lanes: int) -> int:
    """``value`` (< 2^128) in each of ``lanes`` 128-bit slots."""
    return int.from_bytes(value.to_bytes(16, "little") * lanes, "little")


def _step(s: int, low: int) -> int:
    """One xorshift state update in every slot; ``low`` masks each slot's
    low 64 bits, the only ones a slot's state holds."""
    s ^= s >> 12 & low
    s ^= s << 25 & low
    return s ^ (s >> 27 & low)


@cache
def _jump_tables() -> tuple[array, ...]:
    """M^_LANE as eight byte tables: table k maps byte k of a state to the
    XOR of the matrix columns its bits select.  Slot b starts as the unit
    vector e_b, so after _LANE steps it holds column b.  Unsigned 64-bit
    arrays hold the 2,048 entries in 16 KB, a list of ints in 90 KB."""
    s = sum(1 << 129 * b for b in range(64))
    low = _in_slots(_MASK64, 64)
    for _ in range(_LANE):
        s = _step(s, low)
    raw = s.to_bytes(16 * 64, "little")
    cols = [int.from_bytes(raw[i:i + 8], "little") for i in range(0, 16 * 64, 16)]
    tables = []
    for k in range(0, 64, 8):
        table = [0]
        for col in cols[k:k + 8]:
            table += [x ^ col for x in table]
        tables.append(array("Q", table))
    return tuple(tables)


def _keep_bits(total: int, threshold: int, s: int):
    """Yield the keep bits of the ``total`` draws after state ``s`` a block
    at a time, as binary strings: a block's first draw is its string's last
    character.  The last block may end in draws past ``total``."""
    tables = _jump_tables()
    while total > 0:
        lanes = min(_LANES, -(-total // _LANE))
        starts = bytearray()
        for _ in range(lanes):
            starts += s.to_bytes(16, "little")
            s = reduce(xor, map(getitem, tables, s.to_bytes(8, "little")))
        lane = int.from_bytes(starts, "little")
        low = _in_slots(_MASK64, lanes)
        keep = _in_slots(_MASK64 + threshold, lanes)
        bit64 = _in_slots(1 << 64, lanes)
        bits = 0
        for t in range(min(_LANE, total)):
            lane = _step(lane, low)
            bits |= (keep - (lane * _STAR & low) & bit64) << t
        yield f"{bits >> 64:0{lanes * _LANE}b}"
        total -= lanes * _LANE


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Seeded random poset: include pair (i, j), i < j, with probability p."""
    if not 0.0 <= p <= 1.0:
        raise SizeError("probability must lie in [0, 1]")
    if n < 0:
        raise SizeError("element count must be nonnegative")
    blocks = _keep_bits(n * (n - 1) // 2, int(p * (1 << 64)),
                        (seed & _MASK64) or 0x9E3779B97F4A7C15)
    rows = [0] * n
    draws, end = "", 0  # keep bits not yet read: draws[:end], the next one last
    for i in range(n - 1):
        width = n - 1 - i
        while end < width:
            draws = next(blocks) + draws[:end]
            end = len(draws)
        rows[i] = int(draws[end - width:end], 2) << i + 1
        end -= width
    for i in range(n - 2, -1, -1):
        rows[i] |= closed_or(rows, rows[i])
    return Poset(n, tuple(rows))


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
