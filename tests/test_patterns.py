import contextlib
import random
import tracemalloc

import pytest

from chaincover import cover, patterns
from chaincover.core import closed_or, dual, from_relations
from chaincover.generators import (antichain, chain, grid_index, grid_labels,
                                   grid_upper, random_poset)
from chaincover.patterns import (BudgetExhausted, Embedding, _grid_pattern,
                                 _height, embeds, embeds_grid,
                                 linear_extension, validate_embedding)

import oracles


class TestEmbeds:
    def test_grid4_into_grid5(self):
        e = embeds(grid_upper(5), grid_upper(4))
        assert e is not None and validate_embedding(e)

    def test_chain_embeds_no_antichain_pair(self):
        assert embeds(chain(10), grid_upper(4)) is None

    def test_grid6_contains_dual_grid4(self):
        # every finite half-grid is self-dual (see
        # test_half_grid_is_self_dual), so this is Found; frozen from the
        # brute-force matcher
        e = embeds(grid_upper(6), dual(grid_upper(4)))
        assert e is not None
        assert e.mapping == (7, 6, 2, 5, 1, 0)
        assert oracles.brute_embeds(grid_upper(6), dual(grid_upper(4)))

    def test_empty_pattern(self):
        e = embeds(chain(3), antichain(0))
        assert e is not None and e.mapping == ()

    def test_pattern_larger_than_target(self):
        assert embeds(chain(2), chain(3)) is None

    def test_agrees_with_all_injections_oracle(self):
        for seed in range(120):
            p = random_poset(4 + seed % 14, (0.15, 0.3, 0.5)[seed % 3], seed)
            q = random_poset(2 + seed % 6, 0.35, 7000 + seed)
            got = embeds(p, q)
            want = oracles.brute_embeds(p, q)
            assert (got is not None) == want, (seed, p, q)
            if got is not None:
                assert validate_embedding(got)

    def test_agrees_with_oracle_at_desk_scale(self):
        for seed in range(10):
            p = random_poset(20, (0.2, 0.4)[seed % 2], 8100 + seed)
            q = random_poset(8, 0.35, 8200 + seed)
            assert (embeds(p, q) is not None) == oracles.brute_embeds(p, q)

    def test_duality_invariance(self):
        for seed in range(40):
            p = random_poset(11, 0.3, seed)
            q = random_poset(4, 0.4, seed + 500)
            assert (embeds(p, q) is None) == (embeds(dual(p), dual(q)) is None)

    def test_antichain_width_necessary_condition(self):
        # a pattern wider than the target can never embed
        assert embeds(chain(6), antichain(2)) is None
        assert embeds(grid_upper(4), antichain(3)) is None
        from chaincover.cover import min_chain_cover
        for seed in range(25):
            p = random_poset(10, 0.3, seed)
            q = random_poset(5, 0.2, seed + 333)
            if min_chain_cover(q).width > min_chain_cover(p).width:
                assert embeds(p, q) is None

    def test_deterministic_lexicographically_least(self):
        e = embeds(grid_upper(5), grid_upper(4))
        assert e.mapping == embeds(grid_upper(5), grid_upper(4)).mapping
        # first pattern element in assignment order takes the least target
        assert e.mapping[0] == 0

    def test_budget(self):
        p = random_poset(16, 0.15, 3)
        q = random_poset(8, 0.3, 4)
        with pytest.raises(BudgetExhausted):
            embeds(p, q, budget=1)
        # an ample budget resolves exactly like no budget
        assert (embeds(p, q, budget=10 ** 7) is None) == (embeds(p, q) is None)


class TestEmbedsGrid:
    def test_three_chain_inside_grid6(self):
        assert embeds_grid(grid_upper(6), 3) is not None

    def test_too_many_elements(self):
        assert embeds_grid(grid_upper(6), 7) is None

    def test_grid4_in_grid8(self):
        e = embeds_grid(grid_upper(8), 4)
        assert e is not None and validate_embedding(e)

    def test_dual_flag(self):
        e = embeds_grid(grid_upper(6), 4, want_dual=True)
        generic = embeds(grid_upper(6), dual(grid_upper(4)))
        assert (e is None) == (generic is None)

    @pytest.mark.parametrize("k", range(2, 9))
    def test_half_grid_is_self_dual(self, k):
        # (a, b) -> (k-1-b, k-1-a) reverses the componentwise order, so it
        # maps dual(grid_upper(k)) onto grid_upper(k): for finite k,
        # find-grid and find-grid --dual ask the same question
        mapping = tuple(grid_index(k, k - 1 - b, k - 1 - a)
                        for a, b in grid_labels(k))
        assert validate_embedding(Embedding(dual(grid_upper(k)), grid_upper(k),
                                            mapping))

    def test_pattern_is_built_once(self):
        for k in (2, 6, 7):
            for want_dual in (False, True):
                pattern = _grid_pattern(k, want_dual)
                assert pattern is _grid_pattern(k, want_dual)
                assert pattern == (dual(grid_upper(k)) if want_dual
                                   else grid_upper(k))

    def test_agrees_with_generic_embeds(self):
        for seed in range(12):
            p = random_poset(12, 0.25, seed)
            for k in (2, 3, 4):
                special = embeds_grid(p, k)
                generic = embeds(p, grid_upper(k))
                assert (special is None) == (generic is None)

    def test_width_prune_is_sound(self):
        # chain has width 1 < floor(6/2): prune must agree with search
        assert embeds_grid(chain(30), 6) is None
        assert not oracles.brute_embeds(chain(12), grid_upper(4))

    def test_few_maximal_elements_take_the_full_cover(self, monkeypatch):
        # fewer than k // 2 maximal elements, yet width >= k // 2: three
        # chains under one top, and the dual grid (one maximal element)
        masks = cover_masks(monkeypatch)
        for p, k in ((chains_under_top(3, 9), 6), (dual(grid_upper(8)), 4),
                     (dual(grid_upper(8)), 6)):
            for want_dual in (False, True):
                masks.clear()
                got = embeds_grid(p, k, want_dual)
                pattern = dual(grid_upper(k)) if want_dual else grid_upper(k)
                want = oracles.reference_embeds(p, pattern)
                assert masks == [p.maximal_mask, None]
                assert (got and got.mapping) == (want and want.mapping)

    def test_many_maximal_elements_skip_the_full_cover(self, monkeypatch):
        masks = cover_masks(monkeypatch)
        checked = 0
        for seed in range(40):
            p = random_poset(20 + seed, (0.1, 0.2)[seed % 2], 9700 + seed)
            for k in (3, 4, 5, 6):
                masks.clear()
                try:
                    embeds_grid(p, k, budget=0)
                except BudgetExhausted:
                    pass
                if masks and p.maximal_mask.bit_count() >= k // 2:
                    assert masks == [p.maximal_mask]
                    checked += 1
        assert checked > 50


def chains_under_top(count: int, length: int):
    """``count`` disjoint chains of ``length`` elements below one top."""
    top = count * length
    pairs = [(c * length + i, c * length + i + 1)
             for c in range(count) for i in range(length - 1)]
    pairs += [(c * length + length - 1, top) for c in range(count)]
    return from_relations(top + 1, pairs)


def cover_masks(monkeypatch) -> list:
    """Patch cover.min_chain_cover to record the mask of each call."""
    masks = []
    real = cover.min_chain_cover

    def recorded(p, mask=None, hint=None):
        masks.append(mask)
        return real(p, mask, hint)

    monkeypatch.setattr(cover, "min_chain_cover", recorded)
    return masks


class TestValidateEmbedding:
    def test_identity_inclusion(self):
        g5 = grid_upper(5)
        e = embeds(g5, grid_upper(4))
        assert validate_embedding(e)

    def test_collapsing_map_rejected(self):
        e = Embedding(antichain(2), chain(3), (1, 1))
        assert not validate_embedding(e)

    def test_order_breaking_map_rejected(self):
        e = Embedding(chain(2), chain(3), (2, 0))
        assert not validate_embedding(e)

    def test_out_of_range_rejected(self):
        e = Embedding(chain(2), chain(3), (0, 9))
        assert not validate_embedding(e)

    def test_found_results_validate(self):
        for seed in range(60):
            p = random_poset(10, 0.3, seed)
            q = random_poset(3, 0.4, seed + 900)
            e = embeds(p, q)
            if e is not None:
                assert validate_embedding(e)


def test_linear_extension_is_topological():
    for seed in range(10):
        p = random_poset(12, 0.3, seed)
        order = linear_extension(p)
        pos = {x: i for i, x in enumerate(order)}
        assert sorted(order) == list(range(p.n))
        for x, y in p.relation_pairs():
            assert pos[x] < pos[y]


BUDGETS = (1, 2, 5, 10, 50, 200, 1000, None)


def outcome(search, p, q, budget):
    """The mapping, None, or "unknown": what a caller can observe."""
    try:
        e = search(p, q, budget)
    except BudgetExhausted:
        return "unknown"
    return None if e is None else e.mapping


def shuffled(p, seed):
    perm = list(range(p.n))
    random.Random(seed).shuffle(perm)
    return oracles.relabel(p, perm)


class TestSearchKernel:
    """The iterative search against the recursive reference: same mapping,
    NotFound and Unknown at every budget, which pins the node count."""

    def pairs(self):
        for seed in range(60):
            p = random_poset(8 + seed % 20, (0.1, 0.2, 0.35)[seed % 3], 9100 + seed)
            q = random_poset(2 + seed % 7, (0.2, 0.4)[seed % 2], 9300 + seed)
            yield p, q
            yield dual(p), q
            yield shuffled(p, seed), shuffled(q, seed + 1)
        for seed in range(12):
            p = random_poset(24 + seed, (0.15, 0.25)[seed % 2], 9500 + seed)
            for k in (3, 4):
                yield p, grid_upper(k)
                yield p, dual(grid_upper(k))
        for k in (4, 5, 6):
            yield grid_upper(k + 1), grid_upper(k)
            yield grid_upper(k + 2), dual(grid_upper(k))
        yield chain(6), antichain(2)
        yield antichain(6), chain(2)

    def test_same_outcome_at_every_budget(self):
        resolved = unknown = 0
        for p, q in self.pairs():
            for budget in BUDGETS:
                got = outcome(embeds, p, q, budget)
                assert got == outcome(oracles.reference_embeds, p, q, budget), \
                    (p, q, budget)
                unknown += got == "unknown"
                resolved += got != "unknown"
        # both kinds of answer occur, so the node count is really compared
        assert unknown > 50 and resolved > 50

    def test_found_mappings_validate_pairwise(self):
        for p, q in self.pairs():
            e = embeds(p, q)
            if e is not None:
                assert oracles.reference_validate_embedding(e)

    def test_same_outcome_at_workload_scale(self):
        # half-grid patterns of 15 and 21 positions in hosts and at budgets
        # the size of the benchmark's find-grid queries; the last three
        # hosts hold a copy found after 3,631 (k = 6), 4,556 (k = 7) and
        # 9,954 (k = 6) nodes, deep enough for stale cached prefixes to show
        kinds = set()
        for n, prob, seed in ((120, 0.1, 1), (160, 0.2, 2), (200, 0.1, 3),
                              (120, 0.1, 4), (160, 0.1, 15), (200, 0.2, 7)):
            p = random_poset(n, prob, seed)
            for k in (6, 7):
                for want_dual in (False, True):
                    q = _grid_pattern(k, want_dual)
                    for budget in (2000, 20000):
                        got = outcome(embeds, p, q, budget)
                        assert got == outcome(oracles.reference_embeds, p, q, budget), \
                            (n, prob, seed, k, want_dual, budget)
                        kinds.add(got if got in (None, "unknown") else "found")
        assert {"found", "unknown"} <= kinds

    def test_state_is_linear_in_the_pattern(self):
        # 400 positions: a table of q.n x q.n masks, or only of references
        # to them, would pass 1 MB
        p, q = chain(500), chain(400)
        p.down, q.down  # the cached transposes are built before tracing
        tracemalloc.start()
        try:
            e = embeds(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert e is not None and e.mapping == tuple(range(400))
        assert peak <= 1_000_000

    def test_deep_pattern(self):
        # 1,200 positions: the recursive search passes Python's recursion limit
        e = embeds(chain(1500), chain(1200))
        assert e is not None and e.mapping == tuple(range(1200))
        assert embeds(chain(1199), chain(1200)) is None


class TestHeight:
    def test_equals_kahn_reference(self):
        posets = [antichain(0), antichain(4), chain(1), chain(30), grid_upper(9)]
        for seed in range(80):
            posets.append(random_poset(seed % 40 + 1, (0.05, 0.2, 0.5)[seed % 3], seed))
        for p in list(posets):
            posets += [dual(p), shuffled(p, p.n),
                       oracles.relabel(p, list(range(p.n))[::-1])]
        for p in posets:
            height = oracles.reference_height(p)
            assert _height(p, p.n + 1) == height, p
            assert _height(p, height - 1) == max(height - 1, 0), p

    def test_reversed_chain(self):
        p = oracles.relabel(chain(300), list(range(299, -1, -1)))
        assert _height(p, p.n + 1) == 300

    def test_find_grid_walks_at_most_the_levels_it_needs(self, monkeypatch):
        levels = []
        monkeypatch.setattr(patterns, "closed_or",
                            lambda rows, m: levels.append(m) or closed_or(rows, m))
        for k in (3, 5, 7):
            levels.clear()
            with contextlib.suppress(BudgetExhausted):
                embeds_grid(chain(300), k, budget=0)
            assert len(levels) == 2 * k - 3


class TestValidateByRows:
    def test_equals_pairwise_check(self):
        rng = random.Random(5)
        for seed in range(60):
            p = random_poset(10, 0.3, seed)
            q = random_poset(1 + seed % 5, 0.4, seed + 900)
            maps = [tuple(rng.randrange(-1, p.n + 1) for _ in range(q.n))
                    for _ in range(20)]
            maps += [tuple(rng.sample(range(p.n), q.n)) for _ in range(40)]
            e = embeds(p, q)
            if e is not None:
                maps.append(e.mapping)
            for f in maps:
                cand = Embedding(q, p, f)
                assert validate_embedding(cand) == \
                    oracles.reference_validate_embedding(cand), (seed, f)


# random_poset(30, 0.5, s) of width 2 (no other s below 1,520 gives one)
NARROW = (8, 295, 507, 703, 1342, 1383, 1459, 1516)


def disjoint_union(parts):
    """The parts side by side, no element of one comparable to another's."""
    pairs, offset = [], 0
    for q in parts:
        pairs += [(u + offset, v + offset) for u, v in q.relation_pairs()]
        offset += q.n
    return from_relations(offset, pairs)


def grid_answer(p, k, want_dual=False, budget=200_000):
    """True, False, or "unknown": a Found answer's embedding is validated."""
    try:
        e = embeds_grid(p, k, want_dual, budget)
    except BudgetExhausted:
        return "unknown"
    assert e is None or validate_embedding(e)
    return e is not None


class TestFindGridAtScale:
    def test_disjoint_narrow_pieces_are_not_found(self):
        # the half-grid has a least element, so a copy lies in one
        # comparability component, and each piece is narrower than k // 2;
        # together the pieces pass the size, height and width bounds, so
        # only the search can answer
        for count in (2, 4, 8):
            pieces = [random_poset(30, 0.5, s) for s in NARROW[-count:]]
            assert all(cover.min_chain_cover(q).width == 2 for q in pieces)
            host = disjoint_union(pieces)
            for k in (6, 7):
                with pytest.raises(BudgetExhausted):
                    embeds_grid(host, k, budget=0)
                assert embeds_grid(host, k, budget=10 ** 6) is None

    def test_decided_answers_agree_under_relabelling_and_duality(self):
        # for finite k the half-grid is self-dual, so find-grid on P, on P
        # with --dual, on dual(P) and on a relabelled P ask one question
        hosts = [random_poset(120 + 16 * seed, (0.1, 0.2)[seed % 2], seed)
                 for seed in range(6)]
        hosts.append(disjoint_union([random_poset(30, 0.5, s) for s in NARROW[:4]]))
        seen, compared = set(), 0
        for seed, p in enumerate(hosts):
            perm = list(range(p.n))
            random.Random(seed).shuffle(perm)
            answers = [grid_answer(p, 6), grid_answer(p, 6, want_dual=True),
                       grid_answer(dual(p), 6),
                       grid_answer(oracles.relabel(p, perm), 6)]
            decided = [a for a in answers if a != "unknown"]
            assert len(set(decided)) <= 1, (seed, answers)
            seen.update(decided)
            compared += len(decided) >= 2
        # both answers occur, and six of the seven hosts decide two or more
        assert seen == {True, False} and compared >= 6
