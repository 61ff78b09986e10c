import sys

import pytest
from hypothesis import given, strategies as st

from chaincover.cover import min_chain_cover
from chaincover.symbolic import (ALEPH0, MAX_DEPTH, OMEGA, ONE, ZERO, Antichain,
                                 CapMissing, Cardinal, Chain,
                                 DomainError, Dual, FiniteCardinal, Grid, LexSum,
                                 LexSumFam, OrdinalCNF, ParseError, cofinality,
                                 cov_symbolic, join, obstruction_list,
                                 parse_cardinal, parse_term, realize,
                                 term_to_text)

import oracles


def nat(k: int) -> OrdinalCNF:
    return OrdinalCNF.from_nat(k)


# -- ordinals ---------------------------------------------------------------

small_ordinals = st.recursive(
    st.integers(min_value=0, max_value=9).map(nat),
    lambda inner: st.tuples(inner, st.integers(1, 3), st.integers(0, 5)).map(
        lambda t: OrdinalCNF(((t[0] + ONE, t[1]),)) + nat(t[2])),
    max_leaves=4)


# Exponents the text form can hold: n, w, w^n, w^w, w^w^n, ... (towers)
towers = st.recursive(st.integers(min_value=0, max_value=3).map(nat),
                      lambda inner: inner.map(lambda e: OrdinalCNF(((e, 1),))),
                      max_leaves=3)


@st.composite
def text_ordinals(draw):
    exps = sorted(draw(st.lists(towers, max_size=3, unique=True)), reverse=True)
    return OrdinalCNF(tuple((e, draw(st.integers(1, 3))) for e in exps))


text_cardinals = st.one_of(st.integers(0, 9).map(Cardinal.finite),
                           text_ordinals().map(Cardinal.aleph))

text_terms = st.recursive(
    st.one_of(
        text_cardinals.filter(lambda c: not c.is_finite or c.size >= 2).map(Grid),
        text_cardinals.map(Chain),
        st.integers(0, 9).map(Antichain),
        st.builds(LexSumFam, st.sampled_from(["inc", "dec"]),
                  st.none() | st.integers(1, 9),
                  text_ordinals().filter(lambda o: o.is_limit))),
    lambda inner: st.one_of(
        inner.map(Dual),
        st.lists(inner, min_size=1, max_size=3).map(tuple).map(LexSum)),
    max_leaves=8)


class TestOrdinalCNF:
    def test_basic_classification(self):
        assert ZERO.is_zero and not ZERO.is_successor and not ZERO.is_limit
        assert nat(3).is_successor
        assert OMEGA.is_limit
        assert (OMEGA + nat(1)).is_successor
        assert parse_cardinal("aleph(w^2+3)").index.is_successor

    def test_compare(self):
        assert nat(2) < nat(5) < OMEGA < OMEGA + ONE < OMEGA + OMEGA
        assert OMEGA + OMEGA == parse_cardinal("aleph(w*2)").index
        w2 = parse_cardinal("aleph(w^2)").index
        assert OMEGA < w2 and OMEGA + nat(7) < w2

    def test_absorption(self):
        assert nat(5) + OMEGA == OMEGA
        assert OMEGA + nat(0) == OMEGA

    @given(small_ordinals, small_ordinals)
    def test_total_order(self, a, b):
        assert (a < b) + (b < a) + (a == b) == 1

    @given(small_ordinals, small_ordinals, small_ordinals)
    def test_addition_associative(self, a, b, c):
        assert (a + b) + c == a + (b + c)

    @given(small_ordinals, small_ordinals)
    def test_addition_monotone_right(self, a, b):
        assert a <= a + b

    def test_predecessor(self):
        assert (OMEGA + ONE).predecessor() == OMEGA
        assert nat(1).predecessor() == ZERO
        with pytest.raises(ValueError):
            OMEGA.predecessor()

    def test_fundamental_sequences(self):
        assert [OMEGA.fundamental(i) for i in range(4)] == [nat(i) for i in range(4)]
        w2 = parse_cardinal("aleph(w^2)").index
        assert w2.fundamental(3) == parse_cardinal("aleph(w*3)").index
        wt = parse_cardinal("aleph(w*2)").index
        assert wt.fundamental(4) == OMEGA + nat(4)
        ww = parse_cardinal("aleph(w^w)").index
        assert ww.fundamental(2) == w2

    @given(small_ordinals.filter(lambda o: o.is_limit), st.integers(0, 6))
    def test_fundamental_increasing_and_below(self, lam, i):
        assert lam.fundamental(i) < lam.fundamental(i + 1) < lam

    def test_canonical_form_validated(self):
        with pytest.raises(ValueError):
            OrdinalCNF(((ZERO, 0),))
        with pytest.raises(ValueError):
            OrdinalCNF(((ZERO, 1), (ONE, 1)))

    @given(st.one_of(small_ordinals, text_ordinals()),
           st.one_of(small_ordinals, text_ordinals()))
    def test_order_matches_reference(self, a, b):
        # nested exponents included: small_ordinals raises exponents to
        # ordinals of its own, text_ordinals to towers
        ref = oracles.cnf_cmp(a, b)
        assert (a < b, a == b, a > b) == (ref < 0, ref == 0, ref > 0)
        assert (a <= b, a >= b) == (ref <= 0, ref >= 0)
        if ref == 0:
            assert hash(a) == hash(b)

    @given(small_ordinals, small_ordinals)
    def test_exponents_must_strictly_decrease(self, a, b):
        low, high = sorted((a, b))
        with pytest.raises(ValueError, match="CNF exponents must strictly decrease"):
            OrdinalCNF(((low, 1), (high, 1)))
        if low != high:
            assert OrdinalCNF(((high, 1), (low, 2))).terms == ((high, 1), (low, 2))


# -- cardinals ---------------------------------------------------------------

class TestCardinal:
    def test_order(self):
        assert Cardinal.finite(10 ** 9) < ALEPH0 < Cardinal.aleph(1)
        assert Cardinal.aleph(2) < Cardinal.aleph(OMEGA)

    def test_join_laws(self):
        a, b, c = Cardinal.finite(3), Cardinal.aleph(1), Cardinal.aleph(OMEGA)
        assert join([a, b]) == b
        assert join([join([a, b]), c]) == join([a, join([b, c])])
        assert join([b, b]) == b
        assert join([b, a]) == join([a, b])

    def test_cofinality_rules(self):
        assert cofinality(Cardinal.aleph(1)) == Cardinal.aleph(1)
        assert cofinality(ALEPH0) == ALEPH0
        assert cofinality(Cardinal.aleph(OMEGA)) == ALEPH0
        assert cofinality(parse_cardinal("aleph(w^2+3)")) == parse_cardinal("aleph(w^2+3)")
        assert cofinality(parse_cardinal("aleph(w^w)")) == ALEPH0

    def test_cofinality_finite_rejected(self):
        with pytest.raises(FiniteCardinal):
            cofinality(Cardinal.finite(5))


# -- parsing ----------------------------------------------------------------

class TestParse:
    @pytest.mark.parametrize("text", [
        "grid(aleph(1))",
        "lexsum([grid(aleph(1)),dual(grid(aleph(2)))])",
        "grid(aleph(w^2+3))",
        "grid(7)",
        "dual(dual(chain(aleph(0))))",
        "antichain(0)",
        "lexsumfam(inc,w,aleph(succ_n))",
        "lexsumfam(dec,4,aleph(succ_n))",
        "lexsumfam(inc,w,aleph(succ_fund(w*2)))",
        "grid(aleph(w^w*2+w*3+5))",
    ])
    def test_round_trip(self, text):
        assert term_to_text(parse_term(text)) == text

    @given(text_terms)
    def test_round_trip_random_terms(self, t):
        assert parse_term(term_to_text(t)) == t

    def test_whitespace_tolerated(self):
        assert parse_term(" grid( aleph( 1 ) ) ") == Grid(Cardinal.aleph(1))

    def test_errors_carry_position(self):
        with pytest.raises(ParseError) as info:
            parse_term("grid(aleph(1)")
        assert info.value.pos == 13
        with pytest.raises(ParseError):
            parse_term("grid(aleph(1)) trailing")
        with pytest.raises(ParseError):
            parse_term("octahedron(3)")
        with pytest.raises(ParseError):
            parse_term("lexsum([])")

    @pytest.mark.parametrize("parse, text, pos", [
        (parse_cardinal, "9" * 5000, 0),
        (parse_cardinal, "aleph(w*" + "9" * 4301 + ")", 8),
        (parse_term, "grid(" + "9" * 5000 + ")", 5),
        (parse_cardinal, "\u00b2", 0),  # isdigit() but not int()-convertible
    ])
    def test_unconvertible_literal(self, parse, text, pos):
        with pytest.raises(ParseError) as info:
            parse(text)
        assert info.value.pos == pos

    def test_literal_messages(self):
        with pytest.raises(ParseError, match="expected a natural number"):
            parse_cardinal("\u00b2")
        limit = sys.get_int_max_str_digits()
        with pytest.raises(ParseError,
                           match=f"integer literal longer than {limit} digits"):
            parse_term("grid(" + "9" * 5000 + ")")

    @pytest.mark.parametrize("text, message, pos", [
        ("grid(1", "expected ')'", 6),
        ("lexsumfam(inc,0,aleph(succ_n)", "expected ')'", 29),
        # the term is built, and rejected, before the trailing-input check
        ("grid(1)x", "finite grids need size >= 2", 0),
    ])
    def test_error_precedence(self, text, message, pos):
        # a term's closing ")" is read before its value is checked
        with pytest.raises(ParseError) as info:
            parse_term(text)
        assert str(info.value) == f"{message} (at position {pos})"
        assert info.value.pos == pos

    def test_trailing_input(self):
        for parse, text, what in ((parse_term, "grid(2) x", "term"),
                                  (parse_cardinal, "aleph(1))", "cardinal")):
            with pytest.raises(ParseError) as info:
                parse(text)
            assert str(info.value) == f"trailing input after {what} (at position 8)"

    def test_invalid_small_grid(self):
        with pytest.raises(ParseError):
            parse_term("grid(1)")

    def test_exponent_binds_tightly(self):
        # w^2+3 is (w^2)+3, per the ordinal grammar
        assert parse_cardinal("aleph(w^2+3)").index == \
            OrdinalCNF(((nat(2), 1),)) + nat(3)

    def test_noncanonical_sums_normalize(self):
        assert parse_cardinal("aleph(w+w)") == parse_cardinal("aleph(w*2)")
        assert parse_cardinal("aleph(1+w)") == parse_cardinal("aleph(w)")

    def test_nesting_at_the_limit(self):
        # every term and every exponent level counts one
        deep = "dual(" * (MAX_DEPTH - 1) + "grid(5)" + ")" * (MAX_DEPTH - 1)
        assert cov_symbolic(parse_term(deep)) == Cardinal.finite(2)
        tower = "grid(aleph(" + "w^" * (MAX_DEPTH - 1) + "w))"
        assert term_to_text(parse_term(tower)) == tower
        assert parse_cardinal("aleph(" + "w^" * MAX_DEPTH + "w)").index.is_limit

    def test_nesting_past_the_limit(self):
        with pytest.raises(ParseError):
            parse_term("dual(" * MAX_DEPTH + "grid(5)" + ")" * MAX_DEPTH)
        with pytest.raises(ParseError):
            parse_term("grid(aleph(" + "w^" * MAX_DEPTH + "w))")
        with pytest.raises(ParseError):
            parse_cardinal("aleph(" + "w^" * (MAX_DEPTH + 1) + "w)")
        with pytest.raises(ParseError):
            parse_term("dual(" * 3000 + "grid(5)" + ")" * 3000)


# -- covering rules ----------------------------------------------------------

class TestCovSymbolic:
    def test_infinite_grid(self):
        assert cov_symbolic(parse_term("grid(aleph(1))")) == Cardinal.aleph(1)

    def test_dual_invariance(self):
        assert cov_symbolic(parse_term("dual(grid(aleph(3)))")) == Cardinal.aleph(3)
        for text in ["grid(aleph(2))", "lexsum([grid(4),antichain(3)])", "chain(9)"]:
            t = parse_term(text)
            assert cov_symbolic(Dual(t)) == cov_symbolic(t)

    def test_finite_grid(self):
        assert cov_symbolic(parse_term("grid(6)")) == Cardinal.finite(3)
        assert cov_symbolic(parse_term("grid(7)")) == Cardinal.finite(3)

    def test_omega_family(self):
        t = parse_term("lexsumfam(inc,w,aleph(succ_n))")
        assert cov_symbolic(t) == Cardinal.aleph(OMEGA)

    def test_truncated_family(self):
        t = parse_term("lexsumfam(inc,4,aleph(succ_n))")
        assert cov_symbolic(t) == Cardinal.aleph(4)

    def test_lexsum_join(self):
        t = parse_term("lexsum([grid(aleph(1)),grid(aleph(3)),grid(4)])")
        assert cov_symbolic(t) == Cardinal.aleph(3)

    def test_chain_and_antichain(self):
        assert cov_symbolic(parse_term("chain(aleph(5))")) == Cardinal.finite(1)
        assert cov_symbolic(parse_term("chain(0)")) == Cardinal.finite(0)
        assert cov_symbolic(parse_term("antichain(6)")) == Cardinal.finite(6)


# -- obstruction lists --------------------------------------------------------

class TestObstructionList:
    def test_successor(self):
        got = [term_to_text(t) for t in obstruction_list(Cardinal.aleph(1))]
        assert got == ["grid(aleph(1))", "dual(grid(aleph(1)))"]

    def test_limit_four_forms(self):
        got = [term_to_text(t) for t in obstruction_list(Cardinal.aleph(OMEGA))]
        assert got == [
            "lexsumfam(inc,w,aleph(succ_n))",
            "lexsumfam(dec,w,aleph(succ_n))",
            "dual(lexsumfam(inc,w,aleph(succ_n)))",
            "dual(lexsumfam(dec,w,aleph(succ_n)))",
        ]

    def test_every_output_covers_exactly_nu(self):
        for nu in (Cardinal.aleph(1), Cardinal.aleph(OMEGA),
                   parse_cardinal("aleph(w*2)"), parse_cardinal("aleph(w^2)")):
            for t in obstruction_list(nu):
                assert cov_symbolic(t) == nu

    def test_countable_rejected(self):
        with pytest.raises(DomainError):
            obstruction_list(ALEPH0)
        with pytest.raises(DomainError):
            obstruction_list(Cardinal.finite(5))


# -- realization ---------------------------------------------------------------

class TestRealize:
    def test_grid_cap(self):
        p = realize(parse_term("grid(aleph(1))"), {Cardinal.aleph(1): 6})
        assert min_chain_cover(p).width == 3

    def test_dual_homomorphic(self):
        from chaincover.core import dual as pdual
        t = parse_term("lexsum([grid(4),chain(2)])")
        assert realize(Dual(t)) == pdual(realize(t))

    def test_unbounded_growth(self):
        grid_term = obstruction_list(Cardinal.aleph(1))[0]
        for k in (2, 3, 5):
            p = realize(grid_term, {Cardinal.aleph(1): 2 * k})
            assert min_chain_cover(p).width == k

    def test_cap_missing(self):
        with pytest.raises(CapMissing):
            realize(parse_term("grid(aleph(5))"))

    def test_family_truncation(self):
        t = parse_term("lexsumfam(inc,w,aleph(succ_n))")
        cap = {Cardinal.aleph(k): 4 for k in (1, 2, 3)}
        p = realize(t, cap)
        assert p.n == 18
        rev = realize(parse_term("lexsumfam(dec,w,aleph(succ_n))"), cap)
        assert rev.n == 18

    def test_finite_consistency_random_terms(self):
        import random
        rng = random.Random(99)

        def term(depth: int):
            kinds = ["grid", "chain", "antichain"]
            if depth:
                kinds += ["dual", "lexsum", "dual"]
            kind = rng.choice(kinds)
            if kind == "grid":
                return Grid(Cardinal.finite(rng.randint(2, 7)))
            if kind == "chain":
                return Chain(Cardinal.finite(rng.randint(0, 5)))
            if kind == "antichain":
                return Antichain(rng.randint(0, 4))
            if kind == "dual":
                return Dual(term(depth - 1))
            return LexSum(tuple(term(depth - 1)
                                for _ in range(rng.randint(1, 3))))

        for _ in range(60):
            t = term(2)
            expected = cov_symbolic(t)
            assert expected.is_finite
            assert min_chain_cover(realize(t)).width == expected.size


def test_lexsumfam_validation():
    with pytest.raises(ValueError):
        LexSumFam("sideways", None, OMEGA)
    with pytest.raises(ValueError):
        LexSumFam("inc", 0, OMEGA)
    with pytest.raises(ValueError):
        LexSumFam("inc", None, nat(3))
