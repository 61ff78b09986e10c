import random
import re

import networkx as nx
import pytest

from chaincover.core import (InternalInconsistency, Poset, PreconditionError,
                             dual, from_relations, induced, iter_bits,
                             mask_of)
from chaincover.generators import (antichain, chain, grid_index, grid_upper,
                                   lex_sum, random_poset)
from chaincover.incgraph import (MalformedDecomposition, check_metric_lemma,
                                 inc_components, inc_distance_path, recompose,
                                 to_dot)
from chaincover.selftest import LAWS

from test_cover import RecordingRows

import oracles


def three_chain_with_bridge():
    # 0 < 1 < 2 with element 3 incomparable to everything
    return from_relations(4, [(0, 1), (1, 2)])


def parts(p):
    """The members of each Inc component of p, in chain order."""
    return [tuple(iter_bits(c)) for c in inc_components(p)]


class TestIncComponents:
    def test_grid4_parts(self):
        g = grid_upper(4)
        expected = [
            (grid_index(4, 0, 1),),
            (grid_index(4, 0, 2),),
            (grid_index(4, 0, 3), grid_index(4, 1, 2)),
            (grid_index(4, 1, 3),),
            (grid_index(4, 2, 3),),
        ]
        assert parts(g) == expected

    def test_antichain_single_part(self):
        assert len(inc_components(antichain(4))) == 1

    def test_masked_matches_induced_copies(self):
        rng = random.Random(11)
        for seed in range(60):
            p = random_poset(1 + seed % 40, (0.05, 0.15, 0.4)[seed % 3], seed)
            masks = [0, p.full_mask] + [rng.getrandbits(p.n) for _ in range(3)]
            for mask in masks:
                sub, back = induced(p, mask)
                expected = [mask_of(back[x] for x in iter_bits(c))
                            for c in inc_components(sub)]
                assert inc_components(p, mask) == expected

    def test_masked_out_of_range(self):
        with pytest.raises(IndexError):
            inc_components(chain(3), 0b1001)

    def test_masked_uniform_order_checked(self):
        # 2 < 0 < 1 with 1 and 2 incomparable, not closed; 3 is
        # incomparable to all, so only a mask without 3 splits the parts
        p = Poset(4, (0b0010, 0b0000, 0b0001, 0b0000))
        assert inc_components(p) == [0b1111]
        with pytest.raises(InternalInconsistency):
            inc_components(p, 0b0111)

    def test_chain_singletons_in_order(self):
        assert parts(chain(5)) == [(0,), (1,), (2,), (3,), (4,)]

    def test_order_check_reads_each_row_twice(self):
        # one up-row read per element finds the components and one per
        # component orders them; the order is checked on the down-rows,
        # each against the OR of the components below.  300 singletons
        # compared and checked pairwise on the up-rows read 45,449
        p = chain(300)
        rows = RecordingRows(p.up)
        recorded = Poset(p.n, rows)
        recorded.down
        rows.reads.clear()
        assert inc_components(recorded) == [1 << x for x in range(300)]
        assert len(rows.reads) <= 2 * p.n

    def test_walk_reads_each_inc_row_once(self, monkeypatch):
        # one inc_mask per element of the mask, whatever the labelling: a
        # flood fill that re-read rows would grow quadratically unseen
        calls = []
        real = Poset.inc_mask

        def counting(p, x):
            calls.append(x)
            return real(p, x)

        monkeypatch.setattr(Poset, "inc_mask", counting)
        rng = random.Random(5)
        for seed in range(30):
            p = random_poset(1 + seed * 3, (0.05, 0.15, 0.4)[seed % 3], seed)
            perm = list(range(p.n))
            rng.shuffle(perm)
            for q in (p, oracles.relabel(p, perm)):
                for mask in (None, q.full_mask, rng.getrandbits(q.n)):
                    calls.clear()
                    inc_components(q, mask)
                    if mask is None:
                        assert len(calls) == q.n
                    else:
                        assert len(calls) == mask.bit_count()
                        assert sorted(calls) == list(iter_bits(mask))

    def test_cross_part_comparability(self):
        for seed in range(20):
            p = random_poset(12, 0.35, seed)
            d = parts(p)
            for i, low in enumerate(d):
                for high in d[i + 1:]:
                    for x in low:
                        for y in high:
                            assert p.lt(x, y)

    def test_parts_have_connected_inc_graphs(self):
        for seed in range(10):
            p = random_poset(10, 0.3, seed)
            for c in inc_components(p):
                sub = induced(p, c)[0]
                assert all(
                    oracles.shortest_inc_distance(sub, 0, v) is not None
                    for v in range(sub.n))


    def test_induced_copies_counted(self, monkeypatch):
        from chaincover import core, incgraph, reduction
        copied = []

        def counting(p, mask):
            copied.append(mask)
            return induced(p, mask)

        for module in (core, incgraph, reduction):
            monkeypatch.setattr(module, "induced", counting)
        p = lex_sum([antichain(2), antichain(3), chain(2)])
        assert parts(p) == [(0, 1), (2, 3, 4), (5,), (6,)]
        assert copied == []
        # claim 1 restricts antichain(3) to Inc of {0}, kept as a mask
        out = reduction.reduce(antichain(3), 2)
        assert out.x0 is not None
        assert copied == []
        # no Inc_x of a chain reaches t = 1: claim 1 returns the chain whole
        out = reduction.reduce(chain(5), 1)
        assert out.x0 is not None
        assert copied == []


class TestRecompose:
    def test_round_trip(self):
        for seed in range(25):
            p = random_poset(14, (0.1, 0.3, 0.6)[seed % 3], seed)
            assert LAWS["decomposition round trip"](p)

    def test_round_trip_grid(self):
        g = grid_upper(4)
        comps = inc_components(g)
        subs = [induced(g, c)[0] for c in comps]
        assert recompose(g.n, comps, subs) == g

    def test_hand_built_two_antichains(self):
        hand = [mask_of((0, 1)), mask_of((2, 3))]
        assert (recompose(4, hand, [antichain(2), antichain(2)])
                == lex_sum([antichain(2), antichain(2)]))

    def test_single_part_is_identity(self):
        p = antichain(3)
        assert recompose(3, [mask_of((0, 1, 2))], [p]) == p

    def test_malformed_not_partition(self):
        with pytest.raises(MalformedDecomposition):
            recompose(4, [mask_of((0, 1)), mask_of((1, 2))], [antichain(2)] * 2)
        with pytest.raises(MalformedDecomposition):
            recompose(4, [mask_of((0, 1))], [antichain(2)])

    def test_malformed_size_mismatch(self):
        with pytest.raises(MalformedDecomposition):
            recompose(3, [mask_of((0, 1, 2))], [antichain(2)])


class TestEqSumShadow:
    def test_cov_is_part_maximum(self):
        for seed in range(25):
            assert LAWS["cov equals part maximum"](random_poset(14, 0.25, seed))


class TestIncDistance:
    def test_self_distance(self):
        p = three_chain_with_bridge()
        assert inc_distance_path(p, 1, 1) == (0, [1])

    def test_grid4_single_edge(self):
        g = grid_upper(4)
        a, b = grid_index(4, 0, 3), grid_index(4, 1, 2)
        assert inc_distance_path(g, a, b) == (1, [a, b])

    def test_two_step_bridge(self):
        p = three_chain_with_bridge()
        assert inc_distance_path(p, 0, 2) == (2, [0, 3, 2])

    def test_unreachable_between_components(self):
        assert inc_distance_path(chain(5), 0, 4) is None

    def test_matches_bfs_oracle(self):
        for seed in range(15):
            p = random_poset(11, 0.3, seed)
            for x in range(p.n):
                for y in range(p.n):
                    got = inc_distance_path(p, x, y)
                    want = oracles.shortest_inc_distance(p, x, y)
                    assert (got[0] if got else None) == want

    def test_path_is_lexicographically_least(self):
        # diamond of incomparabilities: 0-1-3 and 0-2-3 both shortest
        p = from_relations(4, [(0, 3)])
        d, path = inc_distance_path(p, 0, 3)
        assert d == 2 and path == [0, 1, 3]

    def test_out_of_range_endpoints(self):
        for x, y in ((0, 3), (3, 0), (-1, 0)):
            with pytest.raises(IndexError):
                inc_distance_path(chain(3), x, y)

    def test_search_stops_at_x(self, monkeypatch):
        # (0,5) is two levels from (1,6): one row for y's level, 39 for the
        # next, then one per path step; searching the whole component made 778
        calls = []
        real = Poset.inc_mask

        def counting(p, x):
            calls.append(x)
            return real(p, x)

        monkeypatch.setattr(Poset, "inc_mask", counting)
        g = grid_upper(40)
        x, y = grid_index(40, 0, 5), grid_index(40, 1, 6)
        d, path = inc_distance_path(g, x, y)
        assert (d, path[0], path[-1]) == (2, x, y)
        assert len(calls) == 42

    @pytest.mark.parametrize("base, parts", [(random_poset(400, 0.05, 1), 1),
                                             (grid_upper(30), 5)],
                             ids=["random400", "grid30"])
    def test_matches_networkx_bfs_at_scale(self, base, parts):
        # distance by networkx BFS from y, and the lexicographically least
        # shortest path grown from x by least neighbour one step nearer y,
        # on relabelled and dual copies; sampled pairs, x == y, and a pair
        # each way between every smaller Inc component and the largest
        # (grid30's other four are (0,1), (0,2), (27,29) and (28,29), each
        # comparable to everything)
        rng = random.Random(base.n)
        for p in (oracles.relabel(base, rng.sample(range(base.n), base.n)),
                  dual(base)):
            g = nx.Graph()
            g.add_nodes_from(range(p.n))
            g.add_edges_from((u, v) for u in range(p.n)
                             for v in range(u + 1, p.n)
                             if p.incomparable(u, v))
            *small, large = sorted(nx.connected_components(g), key=len)
            assert len(small) + 1 == parts
            pairs = [tuple(rng.sample(range(p.n), 2)) for _ in range(40)]
            pairs.append((pairs[0][0], pairs[0][0]))
            for comp in small:
                pairs += [(min(comp), min(large)), (min(large), min(comp))]
            unreachable = 0
            for x, y in pairs:
                got = inc_distance_path(p, x, y)
                dist = nx.single_source_shortest_path_length(g, y)
                if x not in dist:
                    assert got is None
                    unreachable += 1
                    continue
                path = [x]
                while path[-1] != y:
                    path.append(min(v for v in g[path[-1]]
                                    if dist[v] == dist[path[-1]] - 1))
                assert got == (dist[x], path)
            assert unreachable >= 2 * len(small)


class TestMetricLemma:
    def test_bridge_example(self):
        p = three_chain_with_bridge()
        rep = check_metric_lemma(p, 0, 2)
        assert rep.d == 2 and rep.path == (0, 3, 2)
        assert rep.item1_ok and rep.item2_ok and not rep.violations

    def test_precondition_not_less(self):
        p = three_chain_with_bridge()
        with pytest.raises(PreconditionError):
            check_metric_lemma(p, 2, 0)

    def test_precondition_chain(self):
        with pytest.raises(PreconditionError):
            check_metric_lemma(chain(4), 0, 3)

    def test_property_sweep(self):
        checked = 0
        for seed in range(60):
            p = random_poset(12, 0.2, seed)
            for x in range(p.n):
                for y in range(p.n):
                    if not p.lt(x, y):
                        continue
                    if inc_distance_path(p, x, y) is None:
                        continue
                    rep = check_metric_lemma(p, x, y)
                    assert rep.ok, (seed, x, y, rep.violations)
                    checked += 1
        assert checked > 200


class TestDot:
    def test_contains_cover_edges_and_labels(self):
        g = grid_upper(3)
        out = "\n".join(to_dot(g))
        assert 'v0 [label="0"];' in out and 'v2 [label="2"];' in out
        assert "v0 -> v1;" in out
        assert "dashed" not in out

    def test_inc_edges_dashed(self):
        out = "\n".join(to_dot(grid_upper(4), include_inc=True))
        assert "style=dashed" in out

    def test_dashed_edges_are_the_incomparable_pairs(self):
        for seed in range(6):
            p = random_poset(15, 0.2, seed)
            perm = list(range(p.n))
            random.Random(seed).shuffle(perm)
            for q in (p, oracles.relabel(p, perm), grid_upper(5)):
                dashed = [(int(x), int(y)) for x, y in re.findall(
                    r"^  v(\d+) -> v(\d+) \[style=dashed, dir=none\];$",
                    "\n".join(to_dot(q, include_inc=True)), re.MULTILINE)]
                expected = [(x, y) for x in range(q.n) for y in range(x + 1, q.n)
                            if q.incomparable(x, y)]
                assert dashed == expected and expected
