import tracemalloc

import pytest

from chaincover.core import from_relations, induced, mask_of
from chaincover.cover import min_chain_cover
from chaincover.generators import (_LANE, _LANES, GridLabel, SizeError, antichain,
                                   canonical_ideal_chain, chain, grid_index,
                                   grid_labels, grid_upper, lex_sum,
                                   random_poset)

from oracles import XorShift64Star, reference_random_pairs


class TestGrid:
    def test_single_point(self):
        g = grid_upper(2)
        assert g == chain(1) and grid_labels(2) == ((0, 1),)

    def test_three_is_a_chain(self):
        assert grid_upper(3) == chain(3)

    def test_four_has_one_incomparable_pair(self):
        g = grid_upper(4)
        pairs = [(x, y) for x in range(g.n) for y in range(x + 1, g.n)
                 if g.incomparable(x, y)]
        assert pairs == [(grid_index(4, 0, 3), grid_index(4, 1, 2))]

    def test_size_error(self):
        with pytest.raises(SizeError):
            grid_upper(1)

    @pytest.mark.parametrize("alpha, beta", [(2, 2), (0, 5), (3, 1), (-1, 2)])
    def test_index_outside_the_grid(self, alpha, beta):
        with pytest.raises(IndexError, match=rf"\({alpha}, {beta}\) is not a grid point"):
            grid_index(5, alpha, beta)

    def test_labels_and_index_agree(self):
        labels = grid_labels(5)
        for i, lab in enumerate(labels):
            assert isinstance(lab, GridLabel)
            assert grid_index(5, lab.alpha, lab.beta) == i

    def test_width_formula(self):
        for n in range(2, 14):
            assert min_chain_cover(grid_upper(n)).width == n // 2

    def test_order_is_componentwise(self):
        g = grid_upper(5)
        labels = grid_labels(5)
        for i, (a, b) in enumerate(labels):
            for j, (a2, b2) in enumerate(labels):
                expected = (a <= a2 and b <= b2) and (i != j)
                assert g.lt(i, j) == expected


class TestLexSum:
    def test_cov_is_max_of_parts(self):
        p = lex_sum([antichain(2), antichain(3)])
        assert p.n == 5 and min_chain_cover(p).width == 3

    def test_chains_concatenate(self):
        assert lex_sum([chain(2), chain(3)]) == chain(5)

    def test_grids(self):
        p = lex_sum([grid_upper(4), grid_upper(6)])
        assert min_chain_cover(p).width == 3

    def test_cross_part_order(self):
        p = lex_sum([antichain(2), antichain(2)])
        for x in (0, 1):
            for y in (2, 3):
                assert p.lt(x, y) and not p.lt(y, x)

    def test_empty_list_rejected(self):
        with pytest.raises(SizeError):
            lex_sum([])

    def test_inc_components_recover_connected_parts(self):
        from chaincover.core import iter_bits
        from chaincover.incgraph import inc_components
        parts = [antichain(2), antichain(3), antichain(2)]
        p = lex_sum(parts)
        comps = inc_components(p)
        assert [tuple(iter_bits(c)) for c in comps] == [(0, 1), (2, 3, 4), (5, 6)]
        assert [induced(p, c)[0] for c in comps] == parts

    def test_empty_part_tolerated(self):
        assert lex_sum([antichain(0), chain(3)]) == chain(3)


class TestRandomPoset:
    def test_reproducible(self):
        a = random_poset(40, 0.1, 123)
        b = random_poset(40, 0.1, 123)
        assert a == b

    def test_frozen_stream_fixture(self):
        # pins the exact xorshift64* draw sequence: a portability regression
        rng = XorShift64Star(42)
        assert [rng.next_u64() for _ in range(3)] == [
            6255019084209693600,
            14430073426741505498,
            14575455857230217846,
        ]

    @pytest.mark.parametrize("seed", [0, 1, 2 ** 64 + 5])
    @pytest.mark.parametrize("p", [0.0, 0.05, 0.3, 1.0])
    def test_equals_reference_stream(self, p, seed):
        # the lanes draw exactly the reference stream
        for n in range(41):
            assert random_poset(n, p, seed) == from_relations(
                n, reference_random_pairs(n, p, seed))

    # (n, p): the pairs fill the last lane exactly; they leave it partial;
    # they span two blocks; n >= 800 at p = 0.05.
    LANE_SIZES = [(256, 0.3), (100, 0.3), (520, 0.05), (800, 0.05)]

    def test_lane_sizes_reach_the_layout(self):
        pairs = [n * (n - 1) // 2 for n, _ in self.LANE_SIZES]
        assert pairs[0] % _LANE == 0 and pairs[0] > _LANE
        assert pairs[1] % _LANE and pairs[1] > _LANE
        assert pairs[2] > _LANE * _LANES

    @pytest.mark.parametrize("seed", [0, -1, 1, 2 ** 64 + 5])
    @pytest.mark.parametrize("n, p", LANE_SIZES)
    def test_equals_reference_stream_past_one_lane(self, n, p, seed):
        assert random_poset(n, p, seed) == from_relations(
            n, reference_random_pairs(n, p, seed))

    def test_memory_stays_near_the_result(self):
        # the rows it keeps take 1.24 MB; a list of the kept pairs took 163 MB
        tracemalloc.start()
        try:
            random_poset(3000, 0.3, 3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 1024 * 1024

    def test_frozen_relation_fixture(self):
        assert random_poset(8, 0.3, 42).relation_pairs() == [
            (0, 7), (2, 3), (2, 4), (5, 6)]

    def test_extremes(self):
        assert random_poset(0, 0.5, 1).n == 0
        assert random_poset(5, 0.0, 1) == antichain(5)
        assert random_poset(5, 1.0, 1) == chain(5)
        assert random_poset(300, 0.0, 5) == antichain(300)  # 351 lanes
        assert random_poset(300, 1.0, 5) == chain(300)

    def test_probability_validated(self):
        for p in (1.5, -0.1, float("nan")):
            with pytest.raises(SizeError, match=r"probability must lie in \[0, 1\]"):
                random_poset(3, p, 0)

    def test_negative_count_rejected(self):
        for make in (chain, antichain, lambda n: random_poset(n, 0.5, 1)):
            with pytest.raises(SizeError, match="element count must be nonnegative"):
                make(-3)

    def test_seed_zero_is_legal(self):
        assert random_poset(6, 0.5, 0) == random_poset(6, 0.5, 0)


class TestCanonicalIdealChain:
    def test_sizes_6_3(self):
        _, ideals = canonical_ideal_chain(6, 3)
        assert [len(j) for j in ideals] == [5, 9, 12]

    def test_4_2_first_ideal_is_a_chain(self):
        grid, ideals = canonical_ideal_chain(4, 2)
        members = sorted(ideals[0])
        assert [grid_labels(4)[x] for x in members] == [(0, 1), (0, 2), (0, 3)]
        sub, _ = induced(grid, mask_of(ideals[0]))
        assert sub == chain(3)

    def test_single_ideal(self):
        _, ideals = canonical_ideal_chain(5, 1)
        assert len(ideals) == 1 and len(ideals[0]) == 4

    def test_strict_nesting(self):
        _, ideals = canonical_ideal_chain(9, 5)
        for a, b in zip(ideals, ideals[1:]):
            assert a < b

    def test_ideals_by_coordinates(self):
        for n in range(2, 13):
            for m in range(1, n):
                _, ideals = canonical_ideal_chain(n, m)
                assert ideals == tuple(
                    frozenset(grid_index(n, x, b) for x in range(a + 1)
                              for b in range(x + 1, n))
                    for a in range(m))

    def test_size_errors(self):
        with pytest.raises(SizeError, match="1 <= m < n"):
            canonical_ideal_chain(4, 4)
        with pytest.raises(SizeError, match="1 <= m < n"):
            canonical_ideal_chain(4, 0)
        with pytest.raises(SizeError, match="grid needs n >= 2"):
            canonical_ideal_chain(1, 1)


def test_generated_posets_satisfy_axioms():
    for p in (grid_upper(6), lex_sum([grid_upper(4), chain(2)]),
              random_poset(12, 0.4, 9)):
        rebuilt = from_relations(p.n, p.relation_pairs())
        assert rebuilt == p  # already closed, already acyclic
