import random
import time
import tracemalloc
from collections import Counter

import pytest

from chaincover import cli, ideal_embed
from chaincover.core import Poset, dual, iter_bits
from chaincover.generators import (antichain, canonical_ideal_chain, chain,
                                   grid_index, grid_labels, grid_upper,
                                   lex_sum, random_poset)
from chaincover.ideal_embed import (EmbedFailure, IdealChain, InvalidChain,
                                    embed_from_ideal_chain, validate_ideal_chain)
from chaincover.patterns import (BudgetExhausted, Embedding, linear_extension,
                                 validate_embedding)
from test_cover import RecordingRows

import oracles


def canonical(n, m) -> IdealChain:
    poset, ideals = canonical_ideal_chain(n, m)
    return IdealChain(poset, ideals)


class TestValidate:
    def test_canonical_passes(self):
        assert validate_ideal_chain(canonical(6, 3)) == ()

    def test_nesting_violation(self):
        poset, ideals = canonical_ideal_chain(6, 3)
        violations = validate_ideal_chain(IdealChain(poset, (ideals[1], ideals[0])))
        assert any(v.kind == "nesting not strict" for v in violations)

    def test_closure_violation_with_witness(self):
        poset, ideals = canonical_ideal_chain(6, 2)
        dropped = grid_index(6, 0, 1)
        tampered = frozenset(x for x in ideals[0] if x != dropped)
        violations = validate_ideal_chain(IdealChain(poset, (tampered, ideals[1])))
        bad = [v for v in violations if v.kind == "not downward closed"]
        assert bad and bad[0].witness[0] == dropped

    def test_directedness_violation(self):
        # two maximal elements of an antichain can never be bounded inside it
        p = antichain(2)
        violations = validate_ideal_chain(IdealChain(p, (frozenset({0, 1}),)))
        kinds = {v.kind for v in violations}
        assert "not up-directed" in kinds

    def test_no_greatest_element_reported(self):
        p = antichain(2)
        violations = validate_ideal_chain(IdealChain(p, (frozenset({0, 1}),)))
        assert any("cofinal" in v.kind for v in violations)

    def test_empty_layer(self):
        p = chain(3)
        ideals = (frozenset({0}), frozenset({0}))
        kinds = {v.kind for v in validate_ideal_chain(IdealChain(p, ideals))}
        assert "empty layer" in kinds and "nesting not strict" in kinds

    def test_layers(self):
        c = canonical(6, 3)
        layers = c.layers
        assert [len(x) for x in layers] == [5, 4, 3]
        assert layers[1] == c.ideals[1] - c.ideals[0]


class TestEmbed:
    def test_canonical_6_3(self):
        result = embed_from_ideal_chain(canonical(6, 3))
        assert isinstance(result, Embedding)
        assert validate_embedding(result)

    def test_layer_condition(self):
        c = canonical(8, 4)
        result = embed_from_ideal_chain(c)
        assert isinstance(result, Embedding)
        i = 0
        for a in range(4):
            for b in range(a + 1, 4):
                assert result.mapping[i] in c.layers[a]
                i += 1

    def test_sweep_with_bruteforce_cross_check(self):
        for n in range(4, 9):
            for m in range(2, n):
                c = canonical(n, m)
                result = embed_from_ideal_chain(c)
                assert isinstance(result, Embedding), (n, m)
                assert validate_embedding(result)
                assert oracles.brute_embeds(c.poset, grid_upper(m))

    def test_m2_needs_single_layer_element(self):
        c = canonical(4, 2)
        result = embed_from_ideal_chain(c)
        assert isinstance(result, Embedding)
        assert len(result.mapping) == 1
        assert result.mapping[0] in c.layers[0]

    def test_single_ideal_rejected(self):
        with pytest.raises(InvalidChain):
            embed_from_ideal_chain(canonical(5, 1))

    def test_invalid_chain_rejected(self):
        poset, ideals = canonical_ideal_chain(6, 3)
        with pytest.raises(InvalidChain):
            embed_from_ideal_chain(IdealChain(poset, (ideals[1], ideals[0])))

    def test_failure_witness_on_starved_instance(self):
        # singleton layers inside a chain: the grid point (0,2) needs a second
        # layer-0 element above f(0,1), and there is none
        p = chain(4)
        ideals = (frozenset({0}), frozenset({0, 1}), frozenset({0, 1, 2}))
        result = embed_from_ideal_chain(IdealChain(p, ideals))
        assert isinstance(result, EmbedFailure)
        assert result.position == (0, 2)
        kinds = {c[0] for c in result.constraints}
        assert kinds <= {"above", "not_below"}

    def test_wide_grid_exercises_incomparability_constraints(self):
        # from m = 4 on, grid-incomparable pairs force the not-below checks
        result = embed_from_ideal_chain(canonical(9, 5))
        assert isinstance(result, Embedding)
        assert validate_embedding(result)


def test_embedding_source_is_the_grid():
    result = embed_from_ideal_chain(canonical(7, 3))
    assert result.source == grid_upper(3)


def principal_chain(p, tops) -> IdealChain:
    """The ideals ↓g for a chain g_0 < g_1 < ... of p: valid by construction
    (greatest element g_a, strict nesting, g_a new in layer a)."""
    return IdealChain(p, tuple(
        frozenset(iter_bits(p.down[g] | 1 << g)) for g in tops))


def random_chains():
    """Valid ideal chains on random posets; on some of them a grid position
    runs out of candidates."""
    for seed in range(150):
        p = random_poset(12 + seed % 25, (0.15, 0.3, 0.5)[seed % 3], 4400 + seed)
        rng = random.Random(seed)
        if seed % 2:
            # index order no longer a linear extension: rank order matters
            perm = list(range(p.n))
            rng.shuffle(perm)
            p = oracles.relabel(p, perm)
        top = rng.randrange(p.n)
        tops = [top]
        while p.up[tops[-1]] and len(tops) < 6:
            tops.append(rng.choice(list(iter_bits(p.up[tops[-1]]))))
        if len(tops) >= 2:
            yield principal_chain(p, tops)


def run(search):
    try:
        return search()
    except BudgetExhausted:
        return "unknown"


class TestSearchKernel:
    """The iterative placement against the recursive reference."""

    def test_same_result_at_every_budget(self, monkeypatch):
        kinds = Counter()
        for c in random_chains():
            for budget in (1, 2, 5, 10, 50, 200, 1000, 10 ** 6):
                monkeypatch.setattr(ideal_embed, "BUDGET", budget)
                got = run(lambda: embed_from_ideal_chain(c))
                want = run(lambda: oracles.reference_embed_from_ideal_chain(c, budget))
                assert got == want, (c, budget)
                kinds[type(got).__name__] += 1
        assert kinds["EmbedFailure"] > 50 and kinds["Embedding"] > 50
        assert kinds["str"] > 20

    def test_canonical_chains(self):
        for n, m in ((6, 3), (9, 5), (12, 8), (20, 10)):
            c = canonical(n, m)
            assert embed_from_ideal_chain(c) == \
                oracles.reference_embed_from_ideal_chain(c)

    def test_failure_equal_on_chains(self):
        # singleton layers in a chain starve the grid from m = 3 on
        for n in range(3, 12):
            for m in range(3, n + 1):
                c = IdealChain(chain(n), tuple(frozenset(range(a + 1))
                                               for a in range(m)))
                got = embed_from_ideal_chain(c)
                assert isinstance(got, EmbedFailure)
                assert got == oracles.reference_embed_from_ideal_chain(c)

    def test_deep_chain(self):
        # 1,035 grid positions: the recursive search passes Python's
        # recursion limit
        c = canonical(48, 46)
        result = embed_from_ideal_chain(c)
        assert isinstance(result, Embedding) and validate_embedding(result)
        layers = c.layers
        assert all(x in layers[a] for x, (a, _) in
                   zip(result.mapping, grid_labels(46)))


    def test_long_chain_fails_without_quadratic_setup(self):
        # 19,900 grid positions, blocked at the second one: the search must
        # not pay for positions it never reaches
        c = IdealChain(chain(200), tuple(frozenset(range(a + 1))
                                         for a in range(200)))
        tracemalloc.start()
        try:
            want = oracles.reference_embed_from_ideal_chain(c)
            ref_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            got = embed_from_ideal_chain(c)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want == EmbedFailure((0, 2), (("above", (0, 1), 0),))
        assert peak < ref_peak + 8 * 2 ** 20


class TestRankedUnion:
    """Candidates are ranked by an extension of the ideals' union alone."""

    def test_down_sets_rank_as_the_whole_host(self):
        # a down-set's own extension is the host's, cut to it, on relabelled
        # and dual hosts too
        rng = random.Random(23)
        checked = 0
        for seed in range(60):
            p = random_poset(10 + seed % 40, (0.05, 0.15, 0.3)[seed % 3], seed)
            perm = rng.sample(range(p.n), p.n)
            for host in (p, oracles.relabel(p, perm), dual(p)):
                whole = linear_extension(host)
                for _ in range(3):
                    union = 0
                    for g in rng.sample(range(host.n), rng.randint(1, 4)):
                        union |= host.down[g] | 1 << g
                    assert linear_extension(host, union) == [
                        x for x in whole if union >> x & 1]
                    checked += 1
        assert checked == 540

    def test_reversed_chain_reads_only_the_union(self):
        # 3999 < 3998 < ... < 0: ranking the whole host read a down-row per
        # element scanned, over and over, for ideals of two elements
        host = dual(chain(4000))
        rows = RecordingRows(host.down)
        recorded = Poset(host.n, host.up)
        vars(recorded)["down"] = rows
        c = IdealChain(recorded, (frozenset({3999}), frozenset({3999, 3998})))
        result = embed_from_ideal_chain(c)
        assert result == embed_from_ideal_chain(IdealChain(host, c.ideals))
        assert result.mapping == (3999,)
        assert len(rows.reads) <= 20


class TestValidateFastPath:
    """Skipping the pairwise directedness scan for ideals with a greatest
    element, and finding the first unbounded pair through the ideal's
    maximal elements, report exactly what the full pairwise scan reports."""

    def tampered(self):
        rng = random.Random(77)
        for c in list(random_chains())[:60] + [canonical(7, 4), canonical(9, 6)]:
            p, ideals = c.poset, list(c.ideals)
            yield c
            for _ in range(6):
                out = list(ideals)
                a = rng.randrange(len(out))
                kind = rng.randrange(5)
                if kind == 0 and out[a]:
                    out[a] = out[a] - {rng.choice(sorted(out[a]))}
                elif kind == 1:
                    out[a] = out[a] | {rng.randrange(p.n)}
                elif kind == 2:
                    out[a] = frozenset(x for x in range(p.n) if rng.random() < 0.4)
                elif kind == 3 and len(out) > 1:
                    b = rng.randrange(len(out))
                    out[a], out[b] = out[b], out[a]
                else:
                    out[a] = frozenset(iter_bits(p.maximal_mask))
                yield IdealChain(p, tuple(out))
        # down-sets of a few tops and arbitrary subsets (not downward
        # closed) as single ideals, on random, relabelled and dual hosts
        for seed in range(90):
            p = random_poset(8 + seed % 30, (0.1, 0.2, 0.4)[seed % 3], 900 + seed)
            p = (p, oracles.relabel(p, rng.sample(range(p.n), p.n)),
                 dual(p))[seed // 3 % 3]
            for _ in range(4):
                tops = rng.sample(range(p.n), rng.randint(1, 4))
                yield IdealChain(p, (frozenset(
                    x for g in tops for x in iter_bits(p.down[g] | 1 << g)),))
                yield IdealChain(p, (frozenset(
                    x for x in range(p.n) if rng.random() < 0.5),))
        yield IdealChain(antichain(3), (frozenset({0, 1, 2}),))
        yield IdealChain(chain(3), (frozenset({0, 5}),))
        yield IdealChain(chain(3), (frozenset(),))

    def test_reports_equal_the_full_scan(self):
        kinds = Counter()
        for c in self.tampered():
            want = oracles.reference_validate_ideal_chain(c)
            assert validate_ideal_chain(c) == want, c
            kinds.update(v.kind for v in want)
        assert kinds["not up-directed"] > 200
        assert kinds["no cofinal chain (no greatest element)"] > 200

    def test_two_tops_exit_2_within_a_bound(self, tmp_path, capsys):
        # a chain of 4,000 below two tops, the whole poset one ideal: the
        # pairwise scan tested ~8 million pairs (2.8 s); through the two
        # tops it takes ~0.04 s
        p = lex_sum([chain(4000), antichain(2)])
        (tmp_path / "p").write_text(p.to_text())
        (tmp_path / "ideals").write_text(" ".join(map(str, range(p.n))) + "\n")
        start = time.perf_counter()
        code = cli.run(["ideal-embed", str(tmp_path / "p"),
                        "--ideals", str(tmp_path / "ideals")])
        elapsed = time.perf_counter() - start
        assert (code, capsys.readouterr().err) == (2, (
            "error: ideal 0: not up-directed (witness (4000, 4001)); ideal 0: "
            "no cofinal chain (no greatest element) (witness ())\n"))
        assert elapsed < 0.3

