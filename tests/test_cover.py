import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import given, settings, strategies as st

from chaincover import cover
from chaincover.core import (InternalInconsistency, Poset, PreconditionError,
                             dual, from_relations, induced, iter_bits, mask_of)
from chaincover.cover import ChainCover, _max_matching, min_chain_cover
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
        assert cc.width == 0 and cc.chains == () and cc.certificate_mask == 0

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
        assert min_chain_cover(chain(7)).certificate_mask.bit_count() == 1

    def test_grid6(self):
        got = min_chain_cover(grid_upper(6)).certificate_mask
        assert got.bit_count() == 3
        assert oracles.is_antichain(grid_upper(6), iter_bits(got))
        assert got == mask_of(oracles.brute_max_antichain(grid_upper(6)))

    def test_lexsum_antichain_sits_in_widest_part(self):
        p = lex_sum([antichain(2), antichain(3)])
        got = min_chain_cover(p).certificate_mask
        assert got == mask_of({2, 3, 4})

    def test_certificate_matches_enumeration(self):
        for seed in range(25):
            p = random_poset(12, 0.25, seed)
            got = min_chain_cover(p).certificate_mask
            assert got.bit_count() == oracles.brute_max_antichain_size(p)


class TestDilworth:
    def test_grid_formula_small(self):
        for n in range(2, 9):
            g = grid_upper(n)
            cc = min_chain_cover(g)
            assert cc.width == n // 2
            assert len(oracles.brute_max_antichain(g)) == n // 2

    def test_chain(self):
        cc = min_chain_cover(chain(4))
        assert cc.width == 1 == cc.certificate_mask.bit_count()

    def test_random_equality(self):
        for seed in range(60):
            p = random_poset(14, (0.1, 0.3, 0.6)[seed % 3], seed)
            cc = min_chain_cover(p)
            assert cc.width == cc.certificate_mask.bit_count()
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


def assert_dilworth_pair(p, mask: int, cc) -> None:
    """cc's chains partition the mask into chains of p, and its certificate
    is an antichain inside the mask of the same size."""
    seen = 0
    for c in cc.chains:
        for i, x in enumerate(c):
            assert not seen >> x & 1
            seen |= 1 << x
            if i:
                assert p.lt(c[i - 1], x)
    assert seen == mask
    cert = cc.certificate_mask
    assert cert.bit_count() == cc.width
    assert not cert & ~mask
    assert oracles.is_antichain(p, iter_bits(cert))


def cut_links(hint, mask: int, n: int) -> tuple[list[int], list[int]]:
    """The matching formed by the links of hint's chains cut to the mask,
    each put in order by placement, not by the hint's own ``chains``."""
    match_l = [-1] * n
    match_r = [-1] * n
    for chain in hint.chain_masks:
        kept = oracles.reference_ordered(hint.poset.up, chain & mask)
        for u, v in zip(kept, kept[1:]):
            match_l[u] = v
            match_r[v] = u
    return match_l, match_r


class TestMaskKernel:
    """min_chain_cover(p, mask) against induced copies and networkx."""

    def test_matches_induced_copy(self):
        rng = random.Random(5)
        for seed in range(30):
            n = rng.randint(0, 60)
            p = random_poset(n, (0.05, 0.1, 0.3)[seed % 3], seed)
            for mask in random_masks(n, rng, 4):
                cc = min_chain_cover(p, mask)
                sub, _ = induced(p, mask)
                assert cc.width == min_chain_cover(sub).width
                assert_dilworth_pair(p, mask, cc)

    def test_full_mask_is_default(self):
        p = random_poset(40, 0.1, 3)
        assert min_chain_cover(p, p.full_mask) == min_chain_cover(p)

    def test_matches_networkx_at_n200(self):
        p = random_poset(200, 0.05, 11)
        for mask in random_masks(p.n, random.Random(2), 3):
            assert min_chain_cover(p, mask).width == split_graph_width(p, mask)
        # the masks reduce makes, at n = 400 and 800: Inc_x, P minus x and
        # its up-set, and x with its up-set inside x's Inc component; each
        # cold and hinted the way reduce hints it
        rng = random.Random(3)
        for p in (random_poset(400, 0.05, 11),
                  lex_sum([random_poset(400, 0.01, 12),
                           random_poset(400, 0.05, 13)])):
            whole = min_chain_cover(p)
            comps = inc_components(p)
            for x in rng.sample(range(p.n), 3):
                up = p.up[x] | 1 << x
                comp = next(c for c in comps if c >> x & 1)
                comp_cover = min_chain_cover(p, comp, hint=whole)
                for mask, hint in ((p.inc_mask(x), whole),
                                   (p.full_mask & ~up, whole),
                                   (up & comp, comp_cover)):
                    width = split_graph_width(p, mask)
                    assert min_chain_cover(p, mask).width == width
                    assert min_chain_cover(p, mask, hint=hint).width == width

    def test_bit_out_of_range(self):
        p = chain(4)
        with pytest.raises(IndexError):
            min_chain_cover(p, 1 << 4)
        with pytest.raises(IndexError):
            induced(p, 1 << 4)


# 0 < 1 < 2 and 3 < 4 < 5, with 1 < 5: width 2.  Its cover, the hint below,
# has chains {0, 1, 2} and {3, 4, 5} and A_max {2, 5}; its dual's cover has
# the same chains and A_max {0, 3}, which is N6's A_min.
N6 = from_relations(6, [(0, 1), (1, 2), (3, 4), (4, 5), (1, 5)])
N6_HINT = min_chain_cover(N6)
N6_DUAL = dual(N6)
N6_DUAL_HINT = min_chain_cover(N6_DUAL)


def assert_seed_is_reference(hint, mask: int) -> None:
    """The seed cut from the hint's matching by the elements it loses equals
    the links inside the mask read bit by bit, masks included."""
    assert cover._restricted(hint.matching, mask) == oracles.reference_restricted(
        hint.matching[0], mask, hint.poset.n)


def assert_carried_matching(got, hint=None) -> None:
    """got's matching: mutually inverse successor and predecessor lists of
    relations, -1 outside its base, with its matched masks.  A settled cut
    (the hint's cut chains bounded by its cut A_max) holds its hint's
    matching itself, as does a cut to one chain; a matched cover holds its
    own, on its mask."""
    succ, pred, base, lefts, rights = got.matching
    up, n = got.poset.up, got.poset.n
    assert len(succ) == len(pred) == n
    for u, v in enumerate(succ):
        if v >= 0:
            assert pred[v] == u and up[u] >> v & 1
            assert base >> u & 1 and base >> v & 1
    for v, u in enumerate(pred):
        assert u < 0 or succ[u] == v
    assert lefts == mask_of(u for u, v in enumerate(succ) if v >= 0)
    assert rights == mask_of(v for v, u in enumerate(pred) if u >= 0)
    if hint is not None:
        mask = got.mask
        cut = [c for c in hint.chain_masks if c & mask]
        if (len(cut) == 1
                or (hint.certificate_mask & mask).bit_count() == len(cut)):
            assert got.matching is hint.matching
            return
        assert succ is not hint.matching[0] and pred is not hint.matching[1]
    assert base == got.mask


def counting_matching(monkeypatch) -> list[list[int]]:
    """Patch cover._max_matching to record the matching each call starts from."""
    seeds = []
    real = cover._max_matching

    def counted(up, mask, match_l, match_r, free_l, free_r):
        seeds.append(list(match_l))
        return real(up, mask, match_l, match_r, free_l, free_r)

    monkeypatch.setattr(cover, "_max_matching", counted)
    return seeds


class TestHint:
    """min_chain_cover(p, mask, hint) against the cold kernel."""

    def test_matches_cold_from_random_supersets(self):
        rng = random.Random(8)
        for seed in range(40):
            n = rng.randint(0, 60)
            p = random_poset(n, (0.05, 0.1, 0.3)[seed % 3], seed)
            for mask in random_masks(n, rng, 4):
                cold = min_chain_cover(p, mask)
                for sup in (mask, p.full_mask, mask | rng.getrandbits(n),
                            mask | rng.getrandbits(n) & rng.getrandbits(n)):
                    sup &= p.full_mask
                    for hint in (min_chain_cover(p, sup),
                                 min_chain_cover(p, sup, hint=min_chain_cover(p))):
                        got = min_chain_cover(p, mask, hint=hint)
                        assert got.width == cold.width
                        assert_dilworth_pair(p, mask, got)
                # a cover of the mask itself is its own answer
                assert min_chain_cover(p, mask, hint=cold) == cold

    def test_bounds_meet_without_matching(self, monkeypatch):
        assert (N6_HINT.chain_masks, N6_HINT.certificate_mask,
                N6_DUAL_HINT.chain_masks, N6_DUAL_HINT.certificate_mask) == (
                    (0b000111, 0b111000), 0b100100, (0b000111, 0b111000),
                    0b001001)
        seeds = counting_matching(monkeypatch)
        # the up-set {1, 2, 4, 5}: cut chains (1, 2), (4, 5); cut A_max {2, 5};
        # the down-set {0, 1, 3}, an up-set of the dual: cut chains (0, 1),
        # (3); cut A_min {0, 3}
        for p, hint, mask, chains, cert in (
                (N6, N6_HINT, 0b110110, (0b000110, 0b110000), 0b100100),
                (N6_DUAL, N6_DUAL_HINT, 0b001011, (0b000011, 0b001000),
                 0b001001)):
            got = min_chain_cover(p, mask, hint=hint)
            assert (got.chain_masks, got.certificate_mask) == (chains, cert)
        assert seeds == []
        assert min_chain_cover(N6, 0b110110).width == min_chain_cover(
            N6, 0b001011).width == 2

    def test_augments_from_cut_chains(self, monkeypatch):
        seeds = counting_matching(monkeypatch)
        mask = 0b100011  # {0, 1, 5}: cut chains (0, 1), (5), lb 1 < ub 2
        got = min_chain_cover(N6, mask, hint=N6_HINT)
        assert seeds == [[1, -1, -1, -1, -1, -1]]
        assert got.chains == ((0, 1, 5),)
        assert got.width == min_chain_cover(N6, mask).width == 1
        assert_dilworth_pair(N6, mask, got)

    def test_misuse_never_returns_a_wrong_width(self):
        rng = random.Random(9)
        outcomes = set()
        for seed in range(40):
            n = rng.randint(2, 40)
            p = random_poset(n, (0.05, 0.1, 0.3)[seed % 3], seed)
            # another poset, and an equal one that is another object
            others = (random_poset(n, (0.3, 0.05, 0.1)[seed % 3], seed + 1000),
                      from_relations(n, p.relation_pairs()))
            assert others[1] == p and others[1] is not p
            for mask in random_masks(n, rng, 3):
                cold = min_chain_cover(p, mask).width
                for other in others:
                    with pytest.raises(PreconditionError):
                        min_chain_cover(p, mask, hint=min_chain_cover(other))
                hint = min_chain_cover(p, mask & rng.getrandbits(n))
                try:
                    got = min_chain_cover(p, mask, hint=hint)
                except InternalInconsistency:
                    outcome = "raised"
                else:
                    assert got.width == cold
                    assert_dilworth_pair(p, mask, got)
                    outcome = "cold width"
                outcomes.add(outcome)
        # a hint on a subset of the mask reaches both outcomes
        assert outcomes == {"raised", "cold width"}

    def test_seed_is_the_per_bit_restriction(self):
        # supersets, subsets, disjoint and empty masks, from whole covers,
        # matched sub-covers and settled cuts, whose base is not their mask
        rng = random.Random(12)
        cuts = 0
        for seed in range(40):
            n = rng.randint(0, 60)
            p = random_poset(n, (0.05, 0.1, 0.3)[seed % 3], seed)
            full = p.full_mask
            whole = min_chain_cover(p)
            hints = [whole]
            for x in rng.sample(range(n), min(n, 4)):
                hints.append(min_chain_cover(p, full & ~(p.up[x] | 1 << x),
                                             hint=whole))
                hints.append(min_chain_cover(p, rng.getrandbits(n) & full,
                                             hint=whole))
            for hint in hints:
                assert_carried_matching(hint, None if hint is whole else whole)
                base = hint.matching[2]
                cuts += base != hint.mask
                for mask in (0, base, hint.mask, full & ~base,
                             base | rng.getrandbits(n) & full,
                             base & rng.getrandbits(n),
                             rng.getrandbits(n) & full):
                    assert_seed_is_reference(hint, mask)
                    if not mask & ~hint.mask:
                        assert_carried_matching(
                            min_chain_cover(p, mask, hint=hint), hint)
        assert cuts > 50

    def test_hand_built_non_chain_raises(self):
        # {0, 1} is no chain of the antichain, though its cut would settle;
        # a hand-built hint is refused before any of its chains is read
        hint = ChainCover((0b11,), 0b01, antichain(2), 0b11,
                          ([1, -1], [-1, 0], 0b11, 0b01, 0b10))
        with pytest.raises(PreconditionError):
            min_chain_cover(antichain(2), hint=hint)

    def test_hinted_subcovers_hold_no_memory(self):
        # 2,000 sub-covers, settled and matched, the matched ones also on
        # random masks that cut the hint's chains apart, with the collector
        # left alone: nothing they build outlives them
        p = random_poset(60, 0.1, 4)
        whole = min_chain_cover(p)
        masks = [p.full_mask & ~(rows[x] | 1 << x)
                 for rows in (p.up, p.down) for x in range(p.n)]
        masks += random_masks(p.n, random.Random(4), 20)
        for mask in masks:
            min_chain_cover(p, mask, hint=whole)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            for i in range(2000):
                min_chain_cover(p, masks[i % len(masks)], hint=whole)
            end, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert end - start < 64 * 1024


@given(n=st.integers(0, 40), prob=st.sampled_from((0.05, 0.1, 0.2, 0.3)),
       seed=st.integers(0, 2 ** 32), picks=st.lists(st.integers(0, 2 ** 16),
                                                  min_size=6, max_size=6))
@settings(max_examples=120, deadline=None)
def test_hints_chained_three_deep(n, prob, seed, picks):
    """Hints through settled cuts give the cold width and a Dilworth pair:
    along the chains of the covers of P and of its dual as reduce walks
    them, and down three nested masks that each drop one or two elements."""
    p = random_poset(n, prob, seed)
    walks = []
    for q in (p, dual(p)):
        whole = min_chain_cover(q)
        for chain in whole.chains:
            walks.append((q, whole, [q.full_mask & ~(q.down[x] | 1 << x)
                                     for x in chain]))
    mask, nested = p.full_mask, []
    for a, b in zip(picks[::2], picks[1::2]):
        if n:
            mask &= ~(1 << a % n | 1 << b % n)
        nested.append(mask)
    walks.append((p, min_chain_cover(p), nested))
    for q, hint, walk in walks:
        for mask in walk:
            cold = min_chain_cover(q, mask)
            hint = min_chain_cover(q, mask, hint=hint)
            assert hint.width == cold.width
            assert_dilworth_pair(q, mask, hint)


class TestExtremeAntichains:
    """A cold cover certifies A_max, the greatest maximum antichain, and a
    cold cover of the dual A_min, the least: the bounds a hint gives."""

    def test_against_enumeration(self):
        rng = random.Random(41)
        for seed in range(120):
            n = rng.randint(0, 12)
            p = random_poset(n, (0.1, 0.2, 0.35, 0.5)[seed % 4], seed)
            for mask in random_masks(n, rng, 3):
                least, greatest = oracles.brute_extreme_antichains(p, mask)
                assert min_chain_cover(p, mask).certificate_mask == greatest
                assert min_chain_cover(dual(p), mask).certificate_mask == least

    def test_extremes_decide_full_width(self):
        # a down-set keeps the width iff it holds A_min, an up-set iff A_max
        for seed in range(40):
            p = random_poset(12 + seed % 20, (0.1, 0.2, 0.35)[seed % 3], seed)
            least = min_chain_cover(dual(p)).certificate_mask
            whole = min_chain_cover(p)
            for x in range(p.n):
                for rows, extreme in ((p.up, least),
                                      (p.down, whole.certificate_mask)):
                    rest = p.full_mask & ~(rows[x] | 1 << x)
                    assert ((min_chain_cover(p, rest).width == whole.width)
                            == (extreme & ~rest == 0))


class TestKonigFromLastLayering:
    """The certificate of a cover that ran a matching is König's A_max, on
    P's ``up`` rows and, in the dual, A_min on its ``down`` rows, against a
    second alternating search from the cover's own matching."""

    def test_against_reference_konig(self, monkeypatch):
        seeds = counting_matching(monkeypatch)
        rng = random.Random(31)
        covers = 0
        for seed in range(130):
            n = rng.randint(0, 70)
            p = random_poset(n, (0.02, 0.05, 0.1, 0.3)[seed % 4], seed)
            for q in (p, dual(p)):
                whole = min_chain_cover(q)
                for mask in random_masks(n, rng, 2):
                    rows = [row & mask for row in q.up]
                    for hint in (None, whole):
                        calls = len(seeds)
                        got = min_chain_cover(q, mask, hint=hint)
                        matched = len(seeds) > calls
                        assert matched or hint is not None
                        assert_dilworth_pair(q, mask, got)
                        if matched:
                            match_l, match_r = cut_links(got, mask, n)
                            assert got.certificate_mask == oracles.reference_konig(
                                rows, mask, match_l, match_r)
                        covers += 1
        assert covers >= 1000

    def test_cold_cover_leaves_down_unbuilt(self):
        # what ``cov --witness`` and ``antichain`` run reads the up-rows only
        for p in (random_poset(80, 0.1, 5), grid_upper(12), antichain(6),
                  lex_sum([grid_upper(6), chain(4)])):
            min_chain_cover(p).chains
            assert "down" not in vars(p)


class TestCovLaws:
    def test_duality(self):
        for seed in range(30):
            p = random_poset(15, 0.2, seed)
            assert min_chain_cover(p).width == min_chain_cover(dual(p)).width

    def test_monotone_under_induced(self):
        for seed in range(15):
            p = random_poset(12, 0.3, seed)
            w = min_chain_cover(p).width
            sub, _ = induced(p, mask_of(range(0, p.n, 2)))
            assert min_chain_cover(sub).width <= w

    def test_subadditive_over_element_split(self):
        for seed in range(10):
            p = random_poset(10, 0.3, seed)
            w = min_chain_cover(p).width
            for x in range(p.n):
                parts = [p.up[x] | (1 << x), p.down[x], p.inc_mask(x)]
                total = 0
                for mask in parts:
                    sub, _ = induced(p, mask)
                    total += min_chain_cover(sub).width
                assert w <= total


@pytest.mark.parametrize("p", [random_poset(400, 0.05, 1),
                               random_poset(400, 0.3, 1), grid_upper(30)],
                         ids=["random400-0.05", "random400-0.3", "grid30"])
def test_relabelling_and_duality_laws_at_scale(p):
    # sizes the kernels run at, on non-rising copies: a relabelled copy keeps
    # Cov, the antichain size and the component sizes in chain order, and
    # its certificate verifies; the dual keeps Cov, the antichain size and
    # the component count
    perm = list(range(p.n))
    random.Random(p.n).shuffle(perm)
    shuffled = oracles.relabel(p, perm)
    width = min_chain_cover(p).width
    sizes = [c.bit_count() for c in inc_components(p)]
    cc = min_chain_cover(shuffled)
    assert_dilworth_pair(shuffled, shuffled.full_mask, cc)
    assert cc.width == width == cc.certificate_mask.bit_count()
    assert [c.bit_count() for c in inc_components(shuffled)] == sizes
    flipped = dual(p)
    cc = min_chain_cover(flipped)
    assert cc.width == width == cc.certificate_mask.bit_count()
    assert len(inc_components(flipped)) == len(sizes)


@pytest.mark.parametrize("p", [random_poset(400, 0.05, 1),
                               random_poset(400, 0.3, 1), grid_upper(30)],
                         ids=["random400-0.05", "random400-0.3", "grid30"])
def test_chains_follow_placement_order_at_scale(p):
    # on non-rising copies, a cold cover's chains, a settled cut's (which
    # shares its hint's matching) and a matched sub-cover's, walked along
    # the carried links, come out in chain_masks order, each as placement
    # orders it
    perm = list(range(p.n))
    random.Random(p.n).shuffle(perm)
    rng = random.Random(7)
    for q in (oracles.relabel(p, perm), dual(p)):
        cold = min_chain_cover(q)
        covers = {"cold": [cold], "settled": [], "matched": []}
        for x in rng.sample(range(q.n), 8):
            for mask in (q.inc_mask(x), q.full_mask & ~(q.up[x] | 1 << x),
                         q.full_mask & ~(q.down[x] | 1 << x)):
                got = min_chain_cover(q, mask, hint=cold)
                settled = got.matching is cold.matching
                covers["settled" if settled else "matched"].append(got)
        assert all(covers.values())
        for got in sum(covers.values(), []):
            assert got.chains == tuple(
                tuple(oracles.reference_ordered(q.up, c))
                for c in got.chain_masks)


def test_internal_inconsistency_is_runtime_error():
    assert issubclass(InternalInconsistency, RuntimeError)


class RecordingRows(tuple):
    """Up-rows that log the index of every row read, all of them when
    iterated."""

    def __new__(cls, rows):
        self = super().__new__(cls, rows)
        self.reads = []
        return self

    def __getitem__(self, u):
        self.reads.append(u)
        return super().__getitem__(u)

    def __iter__(self):
        self.reads.extend(range(len(self)))
        return super().__iter__()


@pytest.mark.parametrize("m", [3, 5, 30])
def test_dfs_stops_once_layered_free_vertices_are_matched(m):
    # m incomparable elements below a 2-chain: the first layering reaches
    # only the chain's two elements, and the first two roots match both, so
    # none of the other m roots starts; the second layering, from the free
    # left vertices and then the two mates, finds nothing free and ends it.
    # A layering skips the rows of the chain's two elements, already inside
    # its reach.
    p = lex_sum([antichain(m), chain(2)])
    mask = p.full_mask
    rows = RecordingRows([row & mask for row in p.up])
    match_l, match_r = [-1] * p.n, [-1] * p.n
    cert, free_l, free_r = _max_matching(rows, mask, match_l, match_r, mask,
                                         mask)
    layered = list(range(m))
    assert rows.reads == layered + [0, 1] + layered[2:] + [0, 1]
    assert (match_l, match_r) == oracles.reference_matching(list(rows), mask)
    assert (cert, free_l, free_r) == (mask >> 2, mask & ~0b11,
                                      mask & ~(0b11 << m))


def test_subcover_reads_only_its_masks_rows():
    # each rung of a 500-rung ladder, hinted with the ladder's cover, reads
    # the up-rows of its own two elements and no others
    ladder = lex_sum([antichain(2)] * 500)
    up = RecordingRows(ladder.up)
    p = Poset(ladder.n, up)
    whole = min_chain_cover(p)
    for rung in range(500):
        mask = 0b11 << 2 * rung
        up.reads.clear()
        assert min_chain_cover(p, mask, hint=whole).width == 2
        assert not mask_of(up.reads) & ~mask


class TestMatchingKernel:
    """_max_matching grows exactly the matching of the reference recursive
    Hopcroft-Karp in place."""

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
                match_l, match_r = [-1] * p.n, [-1] * p.n
                cut = _max_matching(rows, mask, match_l, match_r, mask, mask)
                assert ((match_l, match_r)
                        == oracles.reference_matching(rows, mask))
                # the uncut rows, read through the mask, give the same run
                up_l, up_r = [-1] * p.n, [-1] * p.n
                assert (_max_matching(p.up, mask, up_l, up_r, mask, mask)
                        == cut)
                assert (up_l, up_r) == (match_l, match_r)
                instances += 1
        assert instances >= 1000

    def test_same_matching_at_n400(self):
        p = random_poset(400, 0.05, 3)
        for mask in random_masks(p.n, random.Random(4), 2):
            rows = [row & mask for row in p.up]
            match_l, match_r = [-1] * p.n, [-1] * p.n
            _max_matching(rows, mask, match_l, match_r, mask, mask)
            assert ((match_l, match_r)
                    == oracles.reference_matching(rows, mask))

    def test_warm_start_reaches_reference_size(self):
        rng = random.Random(23)
        for seed in range(60):
            p = random_poset(rng.randint(0, 60),
                             (0.02, 0.05, 0.1, 0.3, 0.6)[seed % 5], seed)
            for mask in random_masks(p.n, rng, 2):
                sup = (mask | rng.getrandbits(p.n)) & p.full_mask
                seed_links = cut_links(min_chain_cover(p, sup), mask, p.n)
                got_l, got_r = map(list, seed_links)
                rows = [row & mask for row in p.up]
                linked = [(u, v) for u, v in enumerate(got_l) if v >= 0]
                _max_matching(rows, mask, got_l, got_r,
                              mask & ~mask_of(u for u, _ in linked),
                              mask & ~mask_of(v for _, v in linked))
                ref_l, _ = oracles.reference_matching(rows, mask)
                assert (sum(v >= 0 for v in got_l)
                        == sum(v >= 0 for v in ref_l))
                assert ((got_l, got_r)
                        == oracles.reference_matching(rows, mask, seed_links))
                for u, v in enumerate(got_l):
                    if v >= 0:
                        assert rows[u] >> v & 1 and got_r[v] == u
                assert sorted(v for v in got_r if v >= 0) == [
                    u for u, v in enumerate(got_l) if v >= 0]

