import random

import pytest

from chaincover import reduction
from chaincover.core import (PreconditionError, dual, from_relations,
                             induced, is_pure, iter_bits)
from chaincover.cover import ChainCover, min_chain_cover
from chaincover.generators import antichain, chain, grid_upper, lex_sum, random_poset
from chaincover.incgraph import inc_components, inc_distance_path
from chaincover.reduction import (ElementProfile, claim1_reduce,
                                  cover_bound_report, reduce)
from chaincover.selftest import LAWS
from test_cover import (assert_carried_matching, assert_dilworth_pair,
                        assert_seed_is_reference, counting_matching,
                        cut_links)

import oracles


def cov(p) -> int:
    return min_chain_cover(p).width


def cov_of(p, mask) -> int:
    return cov(induced(p, mask)[0])


def profiles_by_copies(p, back) -> dict:
    """Every element's profile, each width measured on an induced copy."""
    out = {}
    for x in range(p.n):
        inc = p.inc_mask(x)
        above = p.full_mask & ~(p.up[x] | 1 << x)
        below = p.full_mask & ~(p.down[x] | 1 << x)
        out[back[x]] = ElementProfile(cov_of(p, inc), cov_of(p, above),
                                      cov_of(p, below))
    return out


def counting_reversed(monkeypatch) -> list:
    """(source, cover) of every ``reversed_cover`` call ``reduction`` makes,
    in call order."""
    made = []
    real = reduction.reversed_cover

    def counting(source):
        got = real(source)
        made.append((source, got))
        return got

    monkeypatch.setattr(reduction, "reversed_cover", counting)
    return made


def counting_covers(monkeypatch) -> list:
    """(mask, hint, cover) of every ``min_chain_cover`` call ``reduction``
    makes, in call order."""
    from chaincover import reduction
    calls = []

    def counting(p, mask=None, hint=None):
        cover = min_chain_cover(p, mask, hint=hint)
        calls.append((mask, hint, cover))
        return cover

    monkeypatch.setattr(reduction, "min_chain_cover", counting)
    return calls


def pivot_instances():
    """Random posets with relabelled copies and duals (not rising), grids,
    and antichains, where every candidate pivot ties."""
    for seed in range(48):
        p = random_poset(4 + seed % 29, (0.05, 0.1, 0.2, 0.3)[seed % 4], seed)
        perm = list(range(p.n))
        random.Random(seed).shuffle(perm)
        yield from (p, oracles.relabel(p, perm), dual(p))
    for k in range(2, 10):
        yield grid_upper(k)
    yield oracles.relabel(grid_upper(7), list(range(20, -1, -1)))
    for m in (1, 2, 3, 8, 25):
        yield antichain(m)


def three_chain_with_bridge():
    from chaincover.core import from_relations
    return from_relations(4, [(0, 1), (1, 2)])


class TestClaim1:
    def test_antichain3_threshold2(self):
        mask, label, inc_covs, *_ = claim1_reduce(antichain(3), 2)
        q, q_map = induced(antichain(3), mask)
        assert label == 1 << 0
        assert q == antichain(2) and q_map == (1, 2)
        assert cov(q) == 2
        assert cov_of(q, q.inc_mask(0)) == 1
        assert inc_covs == {1: 1, 2: 1}

    def test_grid6_threshold3_untouched(self):
        g = grid_upper(6)
        q, label, inc_covs, *_ = claim1_reduce(g, 3)
        assert label == 0 and q == g.full_mask
        # nothing qualifies, so the one pass covered every element
        assert len(inc_covs) == g.n and max(inc_covs.values()) < 3

    def test_chain_trivial(self):
        q, label, inc_covs, *_ = claim1_reduce(chain(4), 1)
        assert q == chain(4).full_mask and label == 0
        assert inc_covs == {0: 0, 1: 0, 2: 0, 3: 0}

    def test_cover_is_a_verified_cover_of_q(self):
        # P's cover when nothing qualifies, else the last accepted Inc_L's
        for seed in range(20):
            p = random_poset(10, 0.15, seed)
            for t in range(1, cov(p) + 1):
                q, _, _, cover, *_ = claim1_reduce(p, t)
                assert sorted(x for c in cover.chains for x in c) == list(iter_bits(q))
                assert not cover.certificate_mask & ~q
                assert cover.width == cov_of(p, q) >= t

    def test_matches_the_greedy_rule_on_induced_copies(self):
        instances = [lex_sum([antichain(3), random_poset(8, 0.2, 5), chain(2),
                              antichain(4)])]
        for seed in range(24):
            p = random_poset(6 + seed % 13, (0.05, 0.1, 0.2)[seed % 3], seed)
            perm = list(range(p.n))
            random.Random(seed).shuffle(perm)
            instances += [p, oracles.relabel(p, perm), dual(p)]
        restricted = 0
        for p in instances:
            for t in range(1, cov(p) + 1):
                got = claim1_reduce(p, t)
                assert got[:3] == oracles.reference_claim1(p, t), (p, t)
                restricted += bool(got.antichain)
        assert restricted > 50

    def test_the_last_pass_is_the_certificate(self, monkeypatch):
        # a pass runs only over a Q with Cov(Q) > t, so the final Q, with
        # Cov(Q) = t, gets none: its Inc cuts ride the walks, each covered
        # right after x's walk cover and hinted with it, Q minus ↓[x] in P
        # when |↑x ∩ Q| <= |↓x ∩ Q|, else Q minus ↑[x] in the dual
        calls = counting_covers(monkeypatch)
        reversing = counting_reversed(monkeypatch)
        restricted = 0
        for seed in range(20):
            p = random_poset(10, 0.15, seed)
            for t in range(1, cov(p) + 1):
                calls.clear()
                reversing.clear()
                got = claim1_reduce(p, t)
                q = got.q
                assert got.cover.width == t
                start = next(i for i, (_, hint, _) in enumerate(calls)
                             if hint is got.cover)
                assert all(hint.width > t for _, hint, _ in calls[1:start])
                [(_, rev)] = reversing
                expected = []
                for cover, below in ((got.cover, p.down), (rev, p.up)):
                    for chain in cover.chains:
                        hint_mask = q
                        for x in chain:
                            walk = q & ~(below[x] | 1 << x)
                            expected.append((cover.poset, hint_mask, walk))
                            in_p = ((p.up[x] & q).bit_count()
                                    <= (p.down[x] & q).bit_count())
                            if in_p == (cover is got.cover):
                                expected.append((cover.poset, walk,
                                                 q & p.inc_mask(x)))
                            hint_mask = walk
                assert [(hint.poset, hint.mask, mask)
                        for mask, hint, _ in calls[start:]] == expected
                restricted += bool(got.antichain)
        assert restricted > 10

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            claim1_reduce(chain(3), 2)
        with pytest.raises(PreconditionError):
            claim1_reduce(chain(3), 0)

    def test_postconditions_hold_at_exact_threshold(self):
        for seed in range(30):
            p = random_poset(12, (0.1, 0.3)[seed % 2], seed)
            assert LAWS["antichain restriction postconditions"](p)

    def test_postconditions_below_threshold(self):
        # thresholds below Cov exercise the greedy antichain branch
        for seed in range(20):
            p = random_poset(10, 0.15, seed)
            for t in range(1, cov(p) + 1):
                mask, label, inc_covs, *_ = claim1_reduce(p, t)
                q = induced(p, mask)[0]
                assert cov(q) >= t
                for x in range(q.n):
                    assert cov_of(q, q.inc_mask(x)) < t
                assert max(inc_covs.values()) < t
                members = list(iter_bits(label))
                for i, x in enumerate(members):
                    for y in members[i + 1:]:
                        assert p.incomparable(x, y)


class TestCoverBoundReport:
    def test_bridge_instance(self):
        p = three_chain_with_bridge()
        rep = cover_bound_report(p, 0, 2)
        assert rep.path == (0, 3, 2)
        assert rep.interval == 0b111
        assert rep.inclusion1_ok and rep.inclusion2_ok
        assert rep.cov_rest == 1 and rep.cov_rest <= rep.bound

    def test_equal_endpoints_rejected(self):
        with pytest.raises(PreconditionError):
            cover_bound_report(three_chain_with_bridge(), 0, 0)

    def test_incomparable_rejected(self):
        with pytest.raises(PreconditionError):
            cover_bound_report(antichain(2), 0, 1)

    def test_different_components_rejected(self):
        with pytest.raises(PreconditionError):
            cover_bound_report(chain(3), 0, 2)

    def test_property_sweep(self):
        checked = 0
        for seed in range(40):
            p = random_poset(12, 0.2, seed)
            for x in range(p.n):
                for y in iter_bits(p.up[x]):
                    from chaincover.incgraph import inc_distance_path
                    if inc_distance_path(p, x, y) is None:
                        continue
                    rep = cover_bound_report(p, x, y)
                    assert rep.inclusion1_ok and rep.inclusion2_ok
                    assert rep.bound_ok
                    checked += 1
        assert checked > 100


class TestReduce:
    def test_antichain3(self):
        out = reduce(antichain(3), 2)
        assert out.antichain == 1 << 0
        assert induced(antichain(3), out.q)[0] == antichain(2)
        assert out.component_covs == (2,)
        assert out.x0 == 1
        # profile over q: removing the up-set of either element leaves one
        assert {x: pr.cov_minus_up for x, pr in out.profiles.items()} == {1: 1, 2: 1}
        # the singleton up-set loses the threshold: the finite gap is flagged
        assert out.case == "unreduced"
        assert out.selected.bit_count() == 1

    def test_two_stacked_antichains_regression(self):
        out = reduce(lex_sum([antichain(2), antichain(2)]), 2)
        assert out.case == "unreduced"
        assert out.antichain == 0
        assert out.component_covs == (2, 2)
        assert out.x0 == 0
        assert tuple(iter_bits(out.selected)) == (0,)

    def test_chain_case1(self):
        out = reduce(chain(5), 1)
        assert out.case == "case1"
        assert out.antichain == 0
        assert all(c == 1 for c in out.component_covs)
        assert out.selected is not None

    def test_case2_is_finitely_unreachable(self):
        # finitely, Cov(q) is the maximum over its components and the
        # antichain restriction keeps Cov(q) >= t, so some component always
        # reaches the threshold; the case2 branch can only fire for the
        # infinite analog where the supremum need not be attained
        for seed in range(25):
            p = random_poset(10, (0.1, 0.3)[seed % 2], seed)
            t = cov(p)
            out = reduce(p, t)
            assert out.case != "case2"
            assert max(out.component_covs) >= t

    def test_restriction_shrinks_before_split(self):
        out = reduce(antichain(4), 3)
        # the greedy antichain restriction removes one element first
        assert induced(antichain(4), out.q)[0] == antichain(3)
        assert out.component_covs == (3,)

    def test_dichotomy_certificates(self):
        for seed in range(20):
            p = random_poset(10, 0.25, seed)
            t = cov(p)
            out = reduce(p, t)
            assert out.case in ("case1", "case1_dual", "unreduced")
            assert any(c >= t for c in out.component_covs)
            assert out.x0 is not None
            if out.case in ("case1", "case1_dual"):
                assert cov_of(p, out.selected) >= t

    def test_target_component_after_others(self):
        # the target component is the fourth; its pivot's up-set must stay
        # inside it, not run on into the chain stacked above
        out = reduce(lex_sum([antichain(2), grid_upper(6), chain(2)]), 3)
        assert out.case == "case1"
        assert out.component_covs == (2, 1, 1, 3, 1, 1, 1, 1)
        assert out.x0 == 4
        assert tuple(iter_bits(out.selected)) == (4, 5, 6, 8, 9, 10, 11, 12, 13, 14)

    def test_profiles_match_induced_copies(self):
        instances = [random_poset(4 + seed % 9, (0.1, 0.25)[seed % 2], seed)
                     for seed in range(30)]
        instances += [lex_sum([antichain(1 + seed % 3), random_poset(6, 0.2, seed),
                               chain(1 + seed % 2), random_poset(5, 0.1, seed + 1)])
                      for seed in range(10)]
        for p in instances:
            for t in range(1, cov(p) + 1):
                out = reduce(p, t)
                inc_covs = claim1_reduce(p, t).inc_covs
                q, back = induced(p, out.q)
                assert inc_covs == {back[x]: cov_of(q, q.inc_mask(x))
                                    for x in range(q.n)}
                assert profiles_by_copies(q, back) == out.profiles

    def test_one_cold_cover_per_orientation(self, monkeypatch):
        # claim 1's cover of q and its reversed links in the dual hint
        # everything after them: the only cover without a hint is P's own
        # (with L empty and nonempty alike)
        calls = counting_covers(monkeypatch)
        for p, t, restricted in ((grid_upper(6), 3, False), (antichain(4), 3, True),
                                 (random_poset(20, 0.1, 1), 1, True)):
            calls.clear()
            out = reduce(p, t)
            assert bool(out.antichain) == restricted
            cold = [(mask, got.poset) for mask, hint, got in calls if hint is None]
            assert cold == [(None, p)]

    def test_pivot_matches_exhaustive_reference(self):
        checked = 0
        for p in pivot_instances():
            for t in range(1, cov(p) + 1):
                out = reduce(p, t)
                assert (out.case, out.x0, out.selected) == \
                    oracles.reference_pivot(p, t), (p, t)
                checked += 1
        assert checked > 500

    def test_wide_antichain_runs_one_pivot_subcover(self, monkeypatch):
        # every candidate pivot of an antichain ties at bound 1, so only the
        # first, x = 0 on the up side, gets an exact cover (not all 1,200)
        calls = counting_covers(monkeypatch)
        out = reduce(antichain(600), 600)
        # the component cover: the one hinted cover of the whole antichain
        [comp_cover] = [cover for _, hint, cover in calls
                        if hint is not None and cover.mask == out.q]
        assert [mask for mask, hint, _ in calls if hint is comp_cover] == [1]
        assert (out.case, out.x0, out.selected) == ("unreduced", 0, 1)

    @pytest.mark.parametrize("t, expected", [
        (2, dict(case="unreduced", antichain=(1 << 598) - 1,
                 q=0b11 << 598, component_covs=(2,), x0=598, selected=1 << 598,
                 profiles={598: ElementProfile(1, 1, 1),
                           599: ElementProfile(1, 1, 1)})),
        (600, dict(case="unreduced", antichain=0, q=(1 << 600) - 1,
                   component_covs=(600,), x0=0, selected=1,
                   profiles={x: ElementProfile(599, 599, 599) for x in range(600)})),
    ])
    def test_wide_antichain_settles_every_hinted_subcover(self, t, expected,
                                                          monkeypatch):
        # every sub-cover of an antichain keeps the bounds of its hint, so
        # the two matchings are P's cold cover and the reversed cover's one
        # layering, both from no links; the outcome is pinned
        seeds = counting_matching(monkeypatch)
        out = reduce(antichain(600), t)
        assert seeds == [[-1] * 600] * 2
        assert {name: getattr(out, name) for name in expected} == expected
        assert list(out.profiles) == list(expected["profiles"])

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            reduce(chain(2), 2)


class TestSeedFromHint:
    """Sub-covers start Hopcroft-Karp from the hint's matching restricted to
    the mask, which on every cut ``reduce`` makes is the cut chains' links."""

    def test_every_seed_is_the_hints_cut_links(self, monkeypatch):
        # Inc_x, up-sets, down-sets and Inc components each meet a chain of
        # the hint in an interval
        seeds = counting_matching(monkeypatch)
        checked = 0

        def checking(p, mask=None, hint=None):
            nonlocal checked
            start = len(seeds)
            got = min_chain_cover(p, mask, hint=hint)
            expected = []
            if hint is None:
                expected.append([-1] * p.n)
            elif got.matching is not hint.matching:
                expected.append(cut_links(hint, mask, p.n)[0])
            assert seeds[start:] == expected
            checked += len(expected)
            return got

        monkeypatch.setattr(reduction, "min_chain_cover", checking)
        for p in pivot_instances():
            for t in range(1, cov(p) + 1):
                reduce(p, t)
        assert checked > 1000

    def test_every_seed_and_carried_matching(self, monkeypatch):
        # every cover reduce makes (cold, claim 1, component, profile and
        # pivot) carries a sound matching, and every hinted one is seeded as
        # the per-bit restriction would; every hint is one of those covers.
        # The reversed cover is claim 1's cover's links inside q, reversed,
        # with no augmentation, and it seeds the dual walk
        calls = counting_covers(monkeypatch)
        reversing = counting_reversed(monkeypatch)
        for p in pivot_instances():
            for t in range(1, cov(p) + 1):
                reduce(p, t)
        made = {id(got) for _, _, got in calls}
        hints = {id(hint) for _, hint, _ in calls}
        for source, got in reversing:
            assert id(source) in made and id(got) in hints
            assert got.poset == dual(source.poset) and got.mask == source.mask
            assert_carried_matching(got)
            succ, pred, lefts, rights = oracles.reference_restricted(
                source.matching[0], source.mask, source.poset.n)
            assert got.matching[:2] == (pred, succ)
            assert got.matching[3:] == (rights, lefts)
        made |= {id(got) for _, got in reversing}
        for mask, hint, got in calls:
            assert_carried_matching(got, hint)
            if hint is not None:
                assert id(hint) in made
                assert_seed_is_reference(hint, mask)
        assert sum(hint is not None for _, hint, _ in calls) > 1000

    def test_chains_read_per_reduce(self, monkeypatch):
        # the only chains read are those of q's covers in P and in the dual,
        # which the profiles walk once each, and the target component's
        # cover's, whose ends bound the pivots
        read = []
        real = ChainCover.chains.fget

        def counting(c):
            read.append(c)
            return real(c)

        monkeypatch.setattr(ChainCover, "chains", property(counting))
        for seed in range(3):
            p = random_poset(80, 0.1, seed)
            t = cov(p)
            read.clear()
            out = reduce(p, t)
            comp = next(c for c in inc_components(p, out.q)
                        if cov_of(p, c) >= t)
            assert [c.poset is p for c in read] == [True, False, True]
            assert [c.mask for c in read] == [out.q, out.q, comp]


@pytest.mark.parametrize("prob", [0.05, 0.1])
def test_relabelling_laws_at_reduce_scale(prob):
    # non-rising input at the size reduce runs at: a relabelled copy keeps
    # claim 1's answer at t = Cov (all of P), the component covers, every
    # profile, purity and the Inc distances of sampled pairs
    rng = random.Random(prob)
    p = random_poset(200, prob, 1)
    perm = rng.sample(range(p.n), p.n)
    shuffled = oracles.relabel(p, perm)
    t = cov(p)
    out, moved = reduce(p, t), reduce(shuffled, t)
    assert out.q == moved.q == p.full_mask
    assert moved.component_covs == out.component_covs
    assert moved.profiles == {perm[x]: out.profiles[x] for x in range(p.n)}
    topped = lex_sum([p, chain(1)])
    for q, pure in ((p, False), (topped, True)):
        assert is_pure(q) == pure
        assert is_pure(oracles.relabel(q, rng.sample(range(q.n), q.n))) == pure
    for x, y in (rng.sample(range(p.n), 2) for _ in range(20)):
        hop = inc_distance_path(p, x, y)
        moved_hop = inc_distance_path(shuffled, perm[x], perm[y])
        assert (hop is None) == (moved_hop is None)
        assert hop is None or hop[0] == moved_hop[0]


def hinted_subcovers_checked(calls) -> int:
    """Check every hinted cover in ``calls`` against a cold cover of its
    mask and as a Dilworth pair, on the poset it covers (the dual's covers
    run their chains the other way); returns how many were checked."""
    checked = 0
    for mask, hint, got in calls:
        if hint is not None:
            assert got.width == min_chain_cover(got.poset, mask).width
            assert_dilworth_pair(got.poset, mask, got)
            checked += 1
    return checked


def test_hinted_subcovers_match_cold_on_non_rising_input(monkeypatch):
    # relabelled copies and duals at the sizes reduce-sweep runs, at t = Cov
    # and at t = Cov - 1, where claim 1's greedy loop runs as well
    calls = counting_covers(monkeypatch)
    checked = 0
    for n, prob, seed in ((60, 0.1, 1), (80, 0.05, 2), (100, 0.1, 3)):
        p = random_poset(n, prob, seed)
        for q in (oracles.relabel(p, random.Random(seed).sample(range(n), n)),
                  dual(p)):
            width = cov(q)
            for t in (width, width - 1):
                calls.clear()
                reduce(q, t)
                checked += hinted_subcovers_checked(calls)
    assert checked > 1000


def ladder(rungs: int):
    """``rungs`` two-element antichains stacked: 2i and 2i + 1 lie below
    2i + 2 and 2i + 3."""
    return from_relations(2 * rungs, [(2 * i + a, 2 * i + 2 + b)
                                      for i in range(rungs - 1)
                                      for a in (0, 1) for b in (0, 1)])


@pytest.mark.parametrize("q, t, matchings", [
    (chain(400), 1, 2), (ladder(200), 2, 201), (antichain(300), 300, 2),
], ids=["chain400", "ladder200", "antichain300"])
def test_hinted_subcovers_match_cold_on_long_thin_and_wide_input(
        q, t, matchings, monkeypatch):
    # each input runs P's cold cover and the reversed cover's layering.  A
    # cut to one chain is settled, so the chain runs no other matching.  The
    # ladder's rungs are its Inc components: one matching per rung but the
    # top (settled by A_max); its one-element Inc_x profiles settle.  Every
    # hinted cover of the antichain keeps its bounds
    calls = counting_covers(monkeypatch)
    seeds = counting_matching(monkeypatch)
    reduce(q, t)
    assert len(seeds) == matchings
    assert hinted_subcovers_checked(calls) > 900


def test_matchings_per_reduce_at_threshold_cov(monkeypatch):
    # settled cuts run no matching: a change that loses some makes more.
    # Down-sets are covered as up-sets of the dual, where A_min is A_max,
    # and each Inc cut is hinted with a walk cover on one side
    instances = [random_poset(n, (0.05, 0.1)[n % 20 // 10], n)
                 for n in range(60, 101, 10)]
    thresholds = [cov(p) for p in instances]
    seeds = counting_matching(monkeypatch)
    for p, t in zip(instances, thresholds):
        reduce(p, t)
    assert len(seeds) == 365

class TestSetIdentity:
    def test_holds_everywhere(self):
        for seed in range(15):
            p = random_poset(10, 0.3, seed)
            assert LAWS["partition identity"](p)
