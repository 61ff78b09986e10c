"""Symbolic covering numbers over aleph cardinals indexed by CNF ordinals.

Ordinal indices are restricted to Cantor normal form over natural
coefficients (everything below epsilon_0).  One consequence is deliberate:
every representable limit index has a canonical fundamental sequence of
order type omega, so every representable limit aleph has countable
cofinality and omega-indexed sum families suffice.

Term grammar (no whitespace required, spaces tolerated):

    term    := "grid(" card ")" | "dual(" term ")"
             | "lexsum([" term ("," term)* "])"
             | "lexsumfam(" dir "," count "," famspec ")"
             | "chain(" card ")" | "antichain(" nat ")"
    card    := "aleph(" ord ")" | nat
    ord     := cnfterm ("+" cnfterm)*
    cnfterm := "w^" exp ["*" nat] | "w" ["*" nat] | nat
    exp     := "w^" exp | "w" | nat
    dir     := "inc" | "dec"
    count   := nat | "w"
    famspec := "aleph(succ_n)" | "aleph(succ_fund(" ord "))"

Exponents are simple towers: neither sums nor coefficients may appear inside
an exponent in text form (build OrdinalCNF values directly for those).
Nesting is bounded by ``MAX_DEPTH``: every ``term`` and every exponent level
counts one, and deeper input is a ParseError.
``aleph(succ_n)`` names the family aleph(n+1); the ``succ_fund`` form names
aleph(l[n]+1) along the canonical fundamental sequence of a limit ordinal l.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import total_ordering

from . import core
from . import generators


class ParseError(core.PreconditionError):
    def __init__(self, message: str, pos: int):
        self.pos = pos
        super().__init__(f"{message} (at position {pos})")


class FiniteCardinal(ValueError):
    """Cofinality is only defined for infinite cardinals."""


class DomainError(core.PreconditionError):
    """Cardinal outside the operation's domain (must be uncountable)."""


class CapMissing(LookupError):
    """No finite cap supplied for an infinite cardinal during realization."""


# ---------------------------------------------------------------------------
# ordinals


@dataclass(frozen=True, order=True)
class OrdinalCNF:
    """An ordinal below epsilon_0 in Cantor normal form.

    ``terms`` is a tuple of (exponent, coefficient) pairs with exponents
    strictly decreasing and coefficients >= 1; the empty tuple is 0.  Tuple
    order on ``terms`` is CNF order, so ordinals compare as their terms.
    """

    terms: tuple[tuple["OrdinalCNF", int], ...] = ()

    def __post_init__(self):
        for i, (e, c) in enumerate(self.terms):
            if c < 1:
                raise ValueError("CNF coefficients must be positive")
            if i and not self.terms[i - 1][0] > e:
                raise ValueError("CNF exponents must strictly decrease")

    @staticmethod
    def from_nat(k: int) -> "OrdinalCNF":
        if k < 0:
            raise ValueError("ordinals are nonnegative")
        return OrdinalCNF(((ZERO, k),)) if k else ZERO

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def is_successor(self) -> bool:
        return bool(self.terms) and self.terms[-1][0].is_zero

    @property
    def is_limit(self) -> bool:
        return bool(self.terms) and not self.terms[-1][0].is_zero

    def _step_down(self) -> "OrdinalCNF":
        """This ordinal with its last coefficient lowered by one."""
        e, c = self.terms[-1]
        head = self.terms[:-1]
        return OrdinalCNF(head + ((e, c - 1),) if c > 1 else head)

    def predecessor(self) -> "OrdinalCNF":
        if not self.is_successor:
            raise ValueError("only successor ordinals have a predecessor")
        return self._step_down()

    def __add__(self, other: "OrdinalCNF") -> "OrdinalCNF":
        if not isinstance(other, OrdinalCNF):
            return NotImplemented
        if not other.terms:
            return self
        lead = other.terms[0][0]
        kept = tuple(t for t in self.terms if t[0] > lead)
        carry = sum(c for e, c in self.terms if e == lead)
        merged = ((lead, other.terms[0][1] + carry),) + other.terms[1:]
        return OrdinalCNF(kept + merged)

    def fundamental(self, i: int) -> "OrdinalCNF":
        """The i-th member of the canonical fundamental sequence (limits only)."""
        if not self.is_limit:
            raise ValueError("fundamental sequences exist for limit ordinals only")
        e = self.terms[-1][0]
        if e.is_successor:
            tail = OrdinalCNF(((e.predecessor(), i),)) if i > 0 else ZERO
        else:
            tail = OrdinalCNF(((e.fundamental(i), 1),))
        return self._step_down() + tail

    def to_text(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in self.terms:
            if e.is_zero:
                parts.append(str(c))
            else:
                body = "w" if e == ONE else f"w^{e.to_text()}"
                parts.append(body if c == 1 else f"{body}*{c}")
        return "+".join(parts)

    def __repr__(self) -> str:
        return f"OrdinalCNF({self.to_text()})"


ZERO = OrdinalCNF()
ONE = OrdinalCNF.from_nat(1)
OMEGA = OrdinalCNF(((ONE, 1),))


# ---------------------------------------------------------------------------
# cardinals


@total_ordering
@dataclass(frozen=True)
class Cardinal:
    """Either a finite count or an aleph with a CNF index."""

    size: int | None = None
    index: OrdinalCNF | None = None

    def __post_init__(self):
        if (self.size is None) == (self.index is None):
            raise ValueError("a cardinal is finite or an aleph, never both")
        if self.size is not None and self.size < 0:
            raise ValueError("finite cardinals are nonnegative")

    @staticmethod
    def finite(k: int) -> "Cardinal":
        return Cardinal(size=k)

    @staticmethod
    def aleph(index) -> "Cardinal":
        if isinstance(index, int):
            index = OrdinalCNF.from_nat(index)
        return Cardinal(index=index)

    @property
    def is_finite(self) -> bool:
        return self.size is not None

    def __lt__(self, other: "Cardinal") -> bool:
        if self.is_finite != other.is_finite:
            return self.is_finite
        if self.is_finite:
            return self.size < other.size
        return self.index < other.index

    def to_text(self) -> str:
        if self.is_finite:
            return str(self.size)
        return f"aleph({self.index.to_text()})"

    def __repr__(self) -> str:
        return f"Cardinal({self.to_text()})"


ALEPH0 = Cardinal.aleph(0)


def join(cards) -> Cardinal:
    """Finite join (supremum) of cardinals: associative, commutative, idempotent."""
    cards = list(cards)
    if not cards:
        raise ValueError("join of no cardinals")
    return max(cards)


def cofinality(c: Cardinal) -> Cardinal:
    """cf of an infinite cardinal.

    Successor alephs are regular; aleph_0 is regular; every CNF-representable
    limit index has a fundamental sequence of type omega, hence cofinality
    aleph_0.
    """
    if c.is_finite:
        raise FiniteCardinal("cofinality of a finite cardinal")
    if c.index.is_zero or c.index.is_successor:
        return c
    return ALEPH0


# ---------------------------------------------------------------------------
# poset terms


class PosetTerm:
    """Base class of the symbolic poset expressions."""


@dataclass(frozen=True)
class Grid(PosetTerm):
    size: Cardinal

    def __post_init__(self):
        if self.size.is_finite and self.size.size < 2:
            raise ValueError("finite grids need size >= 2")


@dataclass(frozen=True)
class Dual(PosetTerm):
    inner: PosetTerm


@dataclass(frozen=True)
class LexSum(PosetTerm):
    parts: tuple[PosetTerm, ...]

    def __post_init__(self):
        if not self.parts:
            raise ValueError("lexsum needs at least one part")


@dataclass(frozen=True)
class LexSumFam(PosetTerm):
    """Sum of grids over the successor family aleph(base[n] + 1), n < count.

    ``count`` is None for the symbolic omega-indexed sum.  ``base`` is omega
    for the plain family aleph(n+1); any other limit ordinal uses its
    canonical fundamental sequence.
    """

    direction: str
    count: int | None
    base: OrdinalCNF = OMEGA

    def __post_init__(self):
        if self.direction not in ("inc", "dec"):
            raise ValueError("direction must be 'inc' or 'dec'")
        if self.count is not None and self.count < 1:
            raise ValueError("family count must be >= 1")
        if not self.base.is_limit:
            raise ValueError("family base must be a limit ordinal")

    def member_index(self, i: int) -> OrdinalCNF:
        return self.base.fundamental(i) + ONE


@dataclass(frozen=True)
class Chain(PosetTerm):
    size: Cardinal


@dataclass(frozen=True)
class Antichain(PosetTerm):
    size: int

    def __post_init__(self):
        if self.size < 0:
            raise ValueError("antichain size is nonnegative")


def term_to_text(t: PosetTerm) -> str:
    match t:
        case Grid(size):
            return f"grid({size.to_text()})"
        case Dual(inner):
            return f"dual({term_to_text(inner)})"
        case LexSum(parts):
            return "lexsum([" + ",".join(term_to_text(x) for x in parts) + "])"
        case LexSumFam(direction, count, base):
            spec = ("aleph(succ_n)" if base == OMEGA
                    else f"aleph(succ_fund({base.to_text()}))")
            return f"lexsumfam({direction},{'w' if count is None else count},{spec})"
        case Chain(size):
            return f"chain({size.to_text()})"
        case Antichain(size):
            return f"antichain({size})"
    raise TypeError(f"not a poset term: {t!r}")


# ---------------------------------------------------------------------------
# parsing


MAX_DEPTH = 200
"""Deepest nesting of terms plus exponent levels that the parser accepts.

It keeps the parser, and the recursive evaluation of what it returns, far
below the interpreter's recursion limit."""


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.depth = 0

    def descend(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ParseError(f"nesting deeper than {MAX_DEPTH} levels", self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self, literal: str) -> bool:
        self.skip_ws()
        return self.text.startswith(literal, self.pos)

    def eat(self, literal: str):
        if not self.peek(literal):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def try_eat(self, literal: str) -> bool:
        if self.peek(literal):
            self.pos += len(literal)
            return True
        return False

    def nat(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and "0" <= self.text[self.pos] <= "9":
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected a natural number", self.pos)
        try:
            return core.int_field(self.text[start:self.pos])
        except ValueError as exc:  # past int()'s digit limit
            raise ParseError(str(exc), start) from None

    def exponent(self) -> OrdinalCNF:
        # the ordinal VALUE of a tower expression: "w^exp" | "w" | nat
        self.descend()
        try:
            if self.try_eat("w"):
                if self.try_eat("^"):
                    return OrdinalCNF(((self.exponent(), 1),))
                return OMEGA
            return OrdinalCNF.from_nat(self.nat())
        finally:
            self.depth -= 1

    def cnfterm(self) -> OrdinalCNF:
        if self.try_eat("w"):
            exp = self.exponent() if self.try_eat("^") else ONE
            coeff = self.nat() if self.try_eat("*") else 1
            if coeff < 1:
                raise ParseError("coefficient must be positive", self.pos)
            if exp.is_zero:
                return OrdinalCNF.from_nat(coeff)
            return OrdinalCNF(((exp, coeff),))
        return OrdinalCNF.from_nat(self.nat())

    def ordinal(self) -> OrdinalCNF:
        total = self.cnfterm()
        while self.try_eat("+"):
            total = total + self.cnfterm()
        return total

    def cardinal(self) -> Cardinal:
        if self.try_eat("aleph("):
            idx = self.ordinal()
            self.eat(")")
            return Cardinal.aleph(idx)
        return Cardinal.finite(self.nat())

    def famspec(self) -> OrdinalCNF:
        if self.try_eat("aleph(succ_n)"):
            return OMEGA
        if self.try_eat("aleph(succ_fund("):
            base = self.ordinal()
            self.eat(")")
            self.eat(")")
            return base
        raise ParseError("expected a family spec", self.pos)

    def term(self) -> PosetTerm:
        self.descend()
        self.skip_ws()
        start = self.pos
        try:
            # built after its ")", so a missing ")" is reported first
            if self.try_eat("grid("):
                kind, args = Grid, (self.cardinal(),)
            elif self.try_eat("dual("):
                kind, args = Dual, (self.term(),)
            elif self.try_eat("lexsum(["):
                parts = [self.term()]
                while self.try_eat(","):
                    parts.append(self.term())
                self.eat("]")
                kind, args = LexSum, (tuple(parts),)
            elif self.try_eat("lexsumfam("):
                if self.try_eat("inc"):
                    direction = "inc"
                elif self.try_eat("dec"):
                    direction = "dec"
                else:
                    raise ParseError("expected 'inc' or 'dec'", self.pos)
                self.eat(",")
                count = None if self.try_eat("w") else self.nat()
                self.eat(",")
                kind, args = LexSumFam, (direction, count, self.famspec())
            elif self.try_eat("chain("):
                kind, args = Chain, (self.cardinal(),)
            elif self.try_eat("antichain("):
                kind, args = Antichain, (self.nat(),)
            else:
                raise ParseError("expected a term", self.pos)
            self.eat(")")
            return kind(*args)
        except ValueError as exc:
            if isinstance(exc, ParseError):
                raise
            raise ParseError(str(exc), start) from exc
        finally:
            self.depth -= 1


def _parse_whole(text: str, rule, what: str):
    """``rule`` over the whole of ``text``; input left after it is an error."""
    parser = _Parser(text)
    value = rule(parser)
    parser.skip_ws()
    if parser.pos != len(text):
        raise ParseError(f"trailing input after {what}", parser.pos)
    return value


def parse_term(text: str) -> PosetTerm:
    """Parse the term grammar; raises ParseError with the failing position."""
    return _parse_whole(text, _Parser.term, "term")


def parse_cardinal(text: str) -> Cardinal:
    return _parse_whole(text, _Parser.cardinal, "cardinal")


# ---------------------------------------------------------------------------
# evaluation


def cov_symbolic(t: PosetTerm) -> Cardinal:
    """Chain covering number of a symbolic term.

    Rules: an infinite grid covers with exactly its own cardinal; a finite
    k-grid with floor(k/2) chains; dualizing never changes the answer; a sum
    covers with the join of its parts; chains with one chain; an antichain
    only by singletons.
    """
    match t:
        case Grid(size):
            if size.is_finite:
                return Cardinal.finite(size.size // 2)
            return size
        case Dual(inner):
            return cov_symbolic(inner)
        case LexSum(parts):
            return join(cov_symbolic(x) for x in parts)
        case LexSumFam(_, count, base):
            if count is None:
                return Cardinal.aleph(base)
            return Cardinal.aleph(t.member_index(count - 1))
        case Chain(size):
            if size.is_finite:
                return Cardinal.finite(min(size.size, 1))
            return Cardinal.finite(1)
        case Antichain(size):
            return Cardinal.finite(size)
    raise TypeError(f"not a poset term: {t!r}")


def obstruction_list(nu: Cardinal) -> list[PosetTerm]:
    """The unavoidable posets witnessing covering number >= nu.

    A successor aleph yields the grid and its dual.  A limit aleph yields the
    four sum forms over the successor family whose join is nu (the base
    ordinal of its fundamental sequence is nu's index): the family
    enumerated increasingly, decreasingly, and their duals.  Countable and
    finite cardinals are outside the theorem's hypothesis.
    """
    if nu.is_finite or nu.index.is_zero:
        raise DomainError("an uncountable cardinal is required")
    if nu.index.is_successor:
        return [Grid(nu), Dual(Grid(nu))]
    inc = LexSumFam("inc", None, nu.index)
    dec = LexSumFam("dec", None, nu.index)
    return [inc, dec, Dual(inc), Dual(dec)]


FAMILY_WIDTH = 3
"""Parts that ``realize`` keeps of a family sum."""


def realize(t: PosetTerm, cap: dict[Cardinal, int] | None = None) -> core.Poset:
    """Finite instantiation: grids over infinite cardinals shrink to their
    capped sizes, family sums truncate to ``FAMILY_WIDTH`` parts, and the
    rest maps homomorphically."""
    cap = cap or {}

    def capped(size: Cardinal) -> int:
        if size.is_finite:
            return size.size
        if size not in cap:
            raise CapMissing(f"no cap for {size.to_text()}")
        return cap[size]

    match t:
        case Grid(size):
            return generators.grid_upper(capped(size))
        case Dual(inner):
            return core.dual(realize(inner, cap))
        case LexSum(parts):
            return generators.lex_sum([realize(x, cap) for x in parts])
        case LexSumFam(direction, count, _):
            width = FAMILY_WIDTH if count is None else min(count, FAMILY_WIDTH)
            members = [Grid(Cardinal.aleph(t.member_index(i)))
                       for i in range(width)]
            if direction == "dec":
                members.reverse()
            return generators.lex_sum([realize(x, cap) for x in members])
        case Chain(size):
            return generators.chain(capped(size))
        case Antichain(size):
            return generators.antichain(size)
    raise TypeError(f"not a poset term: {t!r}")
