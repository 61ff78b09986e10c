"""Finite strict partial orders held as bitmask rows.

A poset is stored as its full reachability relation, one bitmask row per
element: bit ``y`` of ``up[x]`` is set iff ``x < y``.  Construction lists
each element's direct successors in one pass over the pairs, takes the
transitive closure over those lists (in reverse topological order: reverse
index order when every pair rises, else Kahn's) and rejects anything that
is not a strict order.  A text in ``Poset.to_text``'s own form is read in
bulk; any other text line by line, which reports every error.  A subset (an
up-set, a down-set, an interval, an incomparability set) is a bitmask over
the same indices; ``induced`` copies one out only where a caller needs it
as a poset of its own.  ``down``, the transpose of ``up``, is built a block
of rows at a time on first use.  A poset is ``n`` and ``up``, nothing
else.  Values are immutable after construction; every operation here is a
pure function, so concurrent use needs no coordination.
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Iterator


class CycleError(ValueError):
    """Input relation is not a strict order; carries one violating cycle."""

    def __init__(self, cycle: list[int]):
        self.cycle = cycle
        pretty = " < ".join(str(v) for v in cycle)
        super().__init__(f"relation closes into a cycle: {pretty} < {cycle[0]}")


class EmptyPoset(ValueError):
    """Operation undefined on the empty poset."""


class PreconditionError(ValueError):
    """Caller violated an operation's stated precondition."""


class InternalInconsistency(RuntimeError):
    """Two routes that must agree by theorem disagreed: an implementation bug."""


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def closed_or(rows, mask: int) -> int:
    """The OR of ``rows[v]`` over the bits v of ``mask``.  ``rows`` is closed
    (w in rows[v] puts rows[w] inside rows[v]), so a bit already inside the
    OR adds nothing and is skipped."""
    out = 0
    while mask:
        bit = mask & -mask
        out |= rows[bit.bit_length() - 1]
        mask &= ~(out | bit)
    return out


@dataclass(frozen=True)
class Poset:
    """Strict partial order on elements 0..n-1, relation reachability-closed."""

    n: int
    up: tuple[int, ...]

    def __post_init__(self):
        if len(self.up) != self.n:
            raise ValueError("relation row count does not match element count")

    # -- relation queries ---------------------------------------------------

    def lt(self, x: int, y: int) -> bool:
        return bool(self.up[x] >> y & 1)

    def comparable(self, x: int, y: int) -> bool:
        return x == y or self.lt(x, y) or self.lt(y, x)

    def incomparable(self, x: int, y: int) -> bool:
        return not self.comparable(x, y)

    @cached_property
    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Transpose of ``up``: bit y of down[x] is set iff y < x.

        Built a block of ``_BLOCK`` rows at a time (see ``_transpose``), so
        the temporaries beside the result are O(_BLOCK * n) bits: 2 MB of
        packed rows at n = 8,000.
        """
        return _transpose(self.up, self.n)

    def inc_mask(self, x: int) -> int:
        """Elements incomparable to x, as a bitmask."""
        return self.full_mask & ~(self.up[x] | self.down[x] | (1 << x))

    # -- derived structure --------------------------------------------------

    @cached_property
    def maximal_mask(self) -> int:
        return mask_of(x for x in range(self.n) if not self.up[x])

    def greatest(self) -> int | None:
        """The greatest element, or None if there is none."""
        for x in iter_bits(self.maximal_mask):
            if self.down[x] | (1 << x) == self.full_mask:
                return x
        return None

    def cover_pairs(self) -> list[tuple[int, int]]:
        """Edges of the Hasse diagram: x < y with nothing in between.

        The covers of x are ``up[x]`` minus the OR of its members' up-rows.
        """
        out = []
        for x, row in enumerate(self.up):
            out += ((x, y) for y in iter_bits(row & ~closed_or(self.up, row)))
        return out

    def relation_pairs(self) -> list[tuple[int, int]]:
        return [(x, y) for x in range(self.n) for y in iter_bits(self.up[x])]

    def to_text(self) -> str:
        """Serialize in the poset text format (cover pairs only)."""
        lines = [f"n {self.n}"]
        lines += [f"{u} {v}" for u, v in self.cover_pairs()]
        return "\n".join(lines) + "\n"

    def __repr__(self) -> str:
        return f"Poset(n={self.n}, lt={self.relation_pairs()!r})"


# Rows per block of the transpose in ``Poset.down``, and the most bytes in a
# band of its column bytes; a band must hold one column byte of a block, so
# _BAND >= _BLOCK.  A block's packed rows are the largest temporaries, and a
# band's integer the next.
_BLOCK = 2048
_BAND = 1 << 13

# Shift and byte mask of the three delta swaps that transpose an 8 x 8 bit
# matrix packed row-major in a little-endian 64-bit word (Warren, Hacker's
# Delight, 7-3), the mask repeated over a whole band.
_SWAPS = tuple((shift, int.from_bytes(mask.to_bytes(8, "little") * (_BAND // 8), "little"))
               for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC),
                                   (28, 0x00000000F0F0F0F0)))


def _transpose(rows: tuple[int, ...], n: int) -> tuple[int, ...]:
    """Transpose an n x n bit matrix given as row bitmasks (bits below n).

    A block of rows is packed ``width`` bytes a row and padded to a multiple
    of eight rows.  The strided slice ``packed[j::width]`` is column byte j
    of every row, so joining a band of them puts each 8 x 8 bit block in one
    64-bit word; three delta swaps on the band transpose them all, after
    which byte c of each word is column 8j + c of its eight rows.  A block
    whose rows are all zero adds nothing and is skipped.
    """
    width = (n + 7) // 8
    out = [0] * n
    for r0 in range(0, n, _BLOCK):
        block = rows[r0:r0 + _BLOCK]
        if not any(block):
            continue
        height = -len(block) % 8 + len(block)
        packed = b"".join(row.to_bytes(width, "little") for row in block)
        packed += bytes(width * (height - len(block)))
        cols = _BAND // height
        for j0 in range(0, width, cols):
            t = int.from_bytes(b"".join(
                packed[j::width] for j in range(j0, min(j0 + cols, width))), "little")
            for shift, mask in _SWAPS:
                d = (t ^ t >> shift) & mask
                t ^= d ^ d << shift
            t = t.to_bytes(height * min(cols, width - j0), "little")
            for x in range(8 * j0, min(8 * (j0 + cols), n)):
                i = (x // 8 - j0) * height + x % 8
                out[x] |= int.from_bytes(t[i:i + height:8], "little") << r0
        del packed  # before the next block's rows are packed
    return tuple(out)


def _find_cycle(n: int, adj: list[int], start: int) -> list[int]:
    """Recover a cycle through ``start`` in the raw input edges, for reporting."""
    parent = {start: -1}
    frontier = [start]
    while frontier:
        nxt = []
        for u in frontier:
            for v in iter_bits(adj[u]):
                if v == start:
                    path = [u]
                    while parent[path[-1]] != -1:
                        path.append(parent[path[-1]])
                    path.reverse()
                    return path
                if v not in parent:
                    parent[v] = u
                    nxt.append(v)
        frontier = nxt
    raise InternalInconsistency("cycle reported but not reconstructible")


def _on_cycles(adj: list[int], rest: int) -> int:
    """The vertices of ``rest`` that lie on a cycle of ``adj`` within ``rest``.

    Iterative Tarjan over the strongly connected components of ``rest``; a
    component is cyclic iff it has two or more vertices or a loop.
    """
    index: dict[int, int] = {}
    low: dict[int, int] = {}
    stack: list[int] = []
    on_stack = 0
    cyclic = 0
    for root in iter_bits(rest):
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack |= 1 << root
        work = [(root, adj[root] & rest)]
        while work:
            v, pending = work[-1]
            if pending:
                bit = pending & -pending
                work[-1] = (v, pending ^ bit)
                w = bit.bit_length() - 1
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack |= bit
                    work.append((w, adj[w] & rest))
                elif on_stack & bit:
                    low[v] = min(low[v], index[w])
                continue
            work.pop()
            if work:
                u = work[-1][0]
                low[u] = min(low[u], low[v])
            if low[v] == index[v]:
                comp = 0
                while not comp >> v & 1:
                    comp |= 1 << stack.pop()
                on_stack &= ~comp
                if comp & (comp - 1) or adj[v] >> v & 1:
                    cyclic |= comp
    return cyclic


def from_relations(n: int, pairs: Iterable[tuple[int, int]]) -> Poset:
    """Build a poset from generating pairs ``u < v``; closes transitively.

    One pass over the pairs checks their range and lists each element's
    direct successors.  The closure then runs in reverse topological order:
    each row is the OR of its successors' rows, each with its own bit.  When
    every pair rises (u < v as integers) that order is reverse index order;
    otherwise it is Kahn's order on the lists.  Raises CycleError if the
    pairs contain a cycle or a reflexive pair, reporting the cycle through
    the smallest element that lies on one; IndexError naming the first
    out-of-range pair.
    """
    if n < 0:
        raise ValueError("element count must be nonnegative")
    succ = [[] for _ in range(n)]
    falling = False
    for u, v in pairs:
        if not 0 <= u < v < n:
            if not (0 <= u < n and 0 <= v < n):
                raise IndexError(f"pair ({u}, {v}) out of range for {n} elements")
            falling = True  # only a falling or reflexive pair allows a cycle
        succ[u].append(v)
    order = range(n)
    if falling:
        indegree = [0] * n
        for vs in succ:
            for v in vs:
                indegree[v] += 1
        order = [x for x in range(n) if not indegree[x]]
        for u in order:
            for v in succ[u]:
                indegree[v] -= 1
                if not indegree[v]:
                    order.append(v)
        if len(order) < n:
            adj = [mask_of(vs) for vs in succ]
            cyclic = _on_cycles(adj, ((1 << n) - 1) & ~mask_of(order))
            raise CycleError(_find_cycle(n, adj, (cyclic & -cyclic).bit_length() - 1))
    rows = [0] * n
    closed = [0] * n
    for u in reversed(order):
        rows[u] = row = reduce(or_, map(closed.__getitem__, succ[u]), 0)
        closed[u] = row | 1 << u
    return Poset(n, tuple(rows))


# Largest ``n <count>`` header from_text accepts, and largest poset ``gen``
# emits: the rows alone take n^2 bits.  grid_upper(200), 19,900 elements,
# still loads.
MAX_TEXT_ELEMENTS = 20_000


def int_field(field: str) -> int:
    """The value of a field of ASCII decimal digits, naming the digit limit
    when the field passes it; the caller adds the location."""
    if not (field.isascii() and field.isdigit()):
        raise ValueError(f"invalid literal for int() with base 10: {field!r}")
    try:
        return int(field)
    except ValueError:  # a field of digits fails only int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"integer literal longer than {limit} digits") from None


# ``Poset.to_text``'s own form: the header, then lines ``<digits> <digits>\n``.
# Without its digits such a body is " \n" once per line, and it is empty or
# ends in "\n" (else "1 2\n34" would read as the one pair (1, 2)).  With
# space and newline turned into commas, the fields are a JSON array of ints
# but for the last comma; JSON rejects an empty field and a leading zero.
_HEADER = re.compile(r"n ([0-9]+)\n")
_DIGITS = str.maketrans("", "", "0123456789")
_COMMAS = str.maketrans(" \n", ",,")


def _read_plain(text: str) -> tuple[int, Iterable[tuple[int, int]]] | None:
    """The count and pairs of a text in ``to_text``'s form, read in bulk, or
    None for any other text, which ``_read_lines`` then reads or reports."""
    header = _HEADER.match(text)
    if header is None:
        return None
    body = text[header.end():]
    seps = body.translate(_DIGITS)
    if seps != " \n" * (len(seps) // 2) or body[-1:] not in "\n":
        return None
    try:  # past int()'s digit limit, both raise ValueError
        n = int(header[1])
        fields = json.loads(f"[{body.translate(_COMMAS)[:-1]}]")
    except ValueError:
        return None
    if n > MAX_TEXT_ELEMENTS or (fields and max(fields) >= n):
        return None
    it = iter(fields)
    return n, zip(it, it)


def _read_lines(text: str) -> tuple[int, list[tuple[int, int]]]:
    """The count and pairs of any text, line by line, raising ValueError
    with the line of the first error."""
    n = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw.split("#", 1)[0]
        fields = raw.split()
        if not fields:
            continue
        try:
            if n is None:
                if len(fields) != 2 or fields[0] != "n":
                    raise ValueError("expected 'n <count>' header")
                n = int_field(fields[1])
                if n > MAX_TEXT_ELEMENTS:
                    raise ValueError(f"more than {MAX_TEXT_ELEMENTS} elements")
                continue
            if len(fields) != 2:
                raise ValueError("expected '<u> <v>'")
            u, v = map(int_field, fields)
            if u >= n or v >= n:
                raise ValueError(f"pair ({u}, {v}) out of range for {n} elements")
            pairs.append((u, v))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
    if n is None:
        raise ValueError("missing 'n <count>' header line")
    return n, pairs


def from_text(text: str) -> Poset:
    """Parse the poset text format.

    Line 1 is ``n <count>``, count <= MAX_TEXT_ELEMENTS; each later
    non-comment line is ``<u> <v>`` asserting u < v, both below count.  Every
    integer is ASCII decimal digits.  ``#`` starts a comment.
    A text in the form ``Poset.to_text`` writes (one space between the
    fields, no padding or leading zeros, every line ended by a newline) is read
    in bulk by two ``str.translate`` scans and one JSON parse; any other
    text, and every error, line by line.  The closure is applied on load; a
    cycle raises CycleError with the cycle in the message.
    """
    return from_relations(*(_read_plain(text) or _read_lines(text)))


def dual(p: Poset) -> Poset:
    """The opposite order on the same elements."""
    return Poset(p.n, p.down)


def induced(p: Poset, mask: int) -> tuple[Poset, tuple[int, ...]]:
    """The subposet on the bitmask ``mask`` as a poset of its own, with the
    map from its indices back to p's (ascending).  A bit at or beyond
    ``p.n`` raises IndexError.
    """
    if mask & ~p.full_mask:
        raise IndexError(f"mask has elements outside 0..{p.n - 1}")
    chosen = tuple(iter_bits(mask))
    back = {orig: new for new, orig in enumerate(chosen)}
    rows = tuple(mask_of(back[y] for y in iter_bits(p.up[x] & mask)) for x in chosen)
    return Poset(len(chosen), rows), chosen


def is_pure(p: Poset) -> bool:
    """Whether every proper initial segment is strictly bounded above.

    Only the maximal proper initial segments are checked, i.e. the
    complements of the minimal nonempty up-sets, which in a finite poset are
    exactly P minus one maximal element.  Strict boundedness is antitone in
    the segment, so this suffices.
    """
    if p.n == 0:
        raise EmptyPoset("purity is undefined on the empty poset")
    return all(p.down[m] | (1 << m) == p.full_mask
               for m in iter_bits(p.maximal_mask))
