import random

import networkx as nx
import pytest

from chaincover.core import InternalInconsistency, dual, induced, iter_bits
from chaincover.cover import _max_matching, max_antichain, min_chain_cover
from chaincover.generators import (antichain, chain, grid_upper, lex_sum,
                                   random_poset)
from chaincover.incgraph import inc_components

import oracles


class TestMinChainCover:
    def test_grid4_width_two(self):
        g = grid_upper(4)
        cc = min_chain_cover(g)
        assert cc.width == 2
        assert cc.width == oracles.brute_min_chain_partition(g)

    def test_antichain_singleton_chains(self):
        cc = min_chain_cover(antichain(5))
        assert cc.width == 5
        assert sorted(cc.chains) == [(0,), (1,), (2,), (3,), (4,)]

    def test_grid6_width_three(self):
        assert min_chain_cover(grid_upper(6)).width == 3

    def test_empty(self):
        cc = min_chain_cover(antichain(0))
        assert cc.width == 0 and cc.chains == () and cc.certificate == frozenset()

    def test_chains_partition_and_are_chains(self):
        for seed in range(25):
            p = random_poset(15, 0.2, seed)
            cc = min_chain_cover(p)
            seen = set()
            for c in cc.chains:
                for i, x in enumerate(c):
                    assert x not in seen
                    seen.add(x)
                    if i:
                        assert p.lt(c[i - 1], x)
            assert seen == set(range(p.n))

    def test_deterministic(self):
        p = random_poset(20, 0.2, 7)
        assert min_chain_cover(p) == min_chain_cover(p)

    def test_matches_chain_partition_oracle(self):
        for seed in range(20):
            p = random_poset(8, 0.3, seed)
            assert min_chain_cover(p).width == oracles.brute_min_chain_partition(p)


class TestMaxAntichain:
    def test_chain_gives_singleton(self):
        assert len(max_antichain(chain(7))) == 1

    def test_grid6(self):
        got = max_antichain(grid_upper(6))
        assert len(got) == 3
        assert oracles.is_antichain(grid_upper(6), got)
        assert got == oracles.brute_max_antichain(grid_upper(6))

    def test_lexsum_antichain_sits_in_widest_part(self):
        p = lex_sum([antichain(2), antichain(3)])
        got = max_antichain(p)
        assert got == {2, 3, 4}

    def test_certificate_matches_enumeration(self):
        for seed in range(25):
            p = random_poset(12, 0.25, seed)
            assert len(max_antichain(p)) == oracles.brute_max_antichain_size(p)


class TestDilworth:
    def test_grid_formula_small(self):
        for n in range(2, 9):
            g = grid_upper(n)
            cc = min_chain_cover(g)
            assert cc.width == n // 2
            assert len(oracles.brute_max_antichain(g)) == n // 2

    def test_chain(self):
        cc = min_chain_cover(chain(4))
        assert cc.width == 1 == len(cc.certificate)

    def test_random_equality(self):
        for seed in range(60):
            p = random_poset(14, (0.1, 0.3, 0.6)[seed % 3], seed)
            cc = min_chain_cover(p)
            assert cc.width == len(cc.certificate)
            assert cc.width == oracles.brute_max_antichain_size(p)
            assert cc.width == len(oracles.brute_max_antichain(p))


def random_masks(n: int, rng: random.Random, count: int) -> list[int]:
    full = (1 << n) - 1
    return [0, full] + [rng.getrandbits(n) & full for _ in range(count)]


def split_graph_width(p, mask: int) -> int:
    """Width by networkx Hopcroft-Karp on the split graph of the mask."""
    g = nx.Graph()
    left = [("l", u) for u in iter_bits(mask)]
    g.add_nodes_from(left)
    g.add_nodes_from(("r", v) for v in iter_bits(mask))
    g.add_edges_from((("l", u), ("r", v))
                     for u in iter_bits(mask) for v in iter_bits(p.up[u] & mask))
    matching = nx.bipartite.hopcroft_karp_matching(g, top_nodes=left)
    return mask.bit_count() - len(matching) // 2


class TestMaskKernel:
    """min_chain_cover(p, mask) against induced copies and networkx."""

    def test_matches_induced_copy(self):
        rng = random.Random(5)
        for seed in range(30):
            n = rng.randint(0, 60)
            p = random_poset(n, (0.05, 0.1, 0.3)[seed % 3], seed)
            for mask in random_masks(n, rng, 4):
                cc = min_chain_cover(p, mask)
                sub, _ = induced(p, iter_bits(mask))
                assert cc.width == min_chain_cover(sub).width
                seen = 0
                for c in cc.chains:
                    for i, x in enumerate(c):
                        assert not seen >> x & 1
                        seen |= 1 << x
                        if i:
                            assert p.lt(c[i - 1], x)
                assert seen == mask
                assert len(cc.certificate) == cc.width
                assert all(mask >> x & 1 for x in cc.certificate)
                assert oracles.is_antichain(p, cc.certificate)

    def test_full_mask_is_default(self):
        p = random_poset(40, 0.1, 3)
        assert min_chain_cover(p, p.full_mask) == min_chain_cover(p)

    def test_matches_networkx_at_n200(self):
        p = random_poset(200, 0.05, 11)
        for mask in random_masks(p.n, random.Random(2), 3):
            assert min_chain_cover(p, mask).width == split_graph_width(p, mask)
        # the masks reduce makes, at n = 400 and 800: Inc_x, P minus x and
        # its up-set, and x with its up-set inside x's Inc component
        rng = random.Random(3)
        for p in (random_poset(400, 0.05, 11),
                  lex_sum([random_poset(400, 0.01, 12),
                           random_poset(400, 0.05, 13)])):
            comps = inc_components(p)
            for x in rng.sample(range(p.n), 3):
                up = p.up[x] | 1 << x
                comp = next(c for c in comps if c >> x & 1)
                for mask in (p.inc_mask(x), p.full_mask & ~up, up & comp):
                    assert (min_chain_cover(p, mask).width
                            == split_graph_width(p, mask))

    def test_bit_out_of_range(self):
        p = chain(4)
        with pytest.raises(IndexError):
            min_chain_cover(p, 1 << 4)
        with pytest.raises(IndexError):
            induced(p, [4])


class TestCovLaws:
    def test_duality(self):
        for seed in range(30):
            p = random_poset(15, 0.2, seed)
            assert min_chain_cover(p).width == min_chain_cover(dual(p)).width

    def test_monotone_under_induced(self):
        for seed in range(15):
            p = random_poset(12, 0.3, seed)
            w = min_chain_cover(p).width
            sub, _ = induced(p, range(0, p.n, 2))
            assert min_chain_cover(sub).width <= w

    def test_subadditive_over_element_split(self):
        for seed in range(10):
            p = random_poset(10, 0.3, seed)
            w = min_chain_cover(p).width
            for x in range(p.n):
                parts = [p.up[x] | (1 << x), p.down[x], p.inc_mask(x)]
                total = 0
                for mask in parts:
                    sub, _ = induced(p, (i for i in range(p.n) if mask >> i & 1))
                    total += min_chain_cover(sub).width
                assert w <= total


def test_internal_inconsistency_is_runtime_error():
    assert issubclass(InternalInconsistency, RuntimeError)


class TestMatchingKernel:
    """_max_matching returns exactly the reference recursive Hopcroft-Karp."""

    def test_same_matching_as_reference(self):
        rng = random.Random(17)
        instances = 0
        posets = [grid_upper(k) for k in range(2, 12)]
        posets += [chain(k) for k in (0, 1, 2, 7, 40)]
        posets += [antichain(k) for k in (1, 5, 40)]
        posets += [lex_sum([grid_upper(6), antichain(3), chain(4)])]
        for seed in range(250):
            posets.append(random_poset(rng.randint(0, 60),
                                       (0.02, 0.05, 0.1, 0.3, 0.6)[seed % 5], seed))
        for p in posets:
            for mask in random_masks(p.n, rng, 2):
                rows = [row & mask for row in p.up]
                assert _max_matching(rows, mask) == oracles.reference_matching(rows, mask)
                instances += 1
        assert instances >= 1000

    def test_same_matching_at_n400(self):
        p = random_poset(400, 0.05, 3)
        for mask in random_masks(p.n, random.Random(4), 2):
            rows = [row & mask for row in p.up]
            assert _max_matching(rows, mask) == oracles.reference_matching(rows, mask)

