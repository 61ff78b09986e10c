"""Acceptance suite: every criterion at its stated size and tolerance.

All tolerances are exact (these are finite theorems or pinned fixtures); the
only non-exact budgets are the two stated runtime ceilings.  Each test prints
one pass/fail line via ``conftest.record``.
"""

import time

import pytest

from chaincover.core import is_pure, iter_bits
from chaincover.cover import min_chain_cover
from chaincover.generators import (canonical_ideal_chain, grid_upper,
                                   random_poset)
from chaincover.ideal_embed import IdealChain, embed_from_ideal_chain
from chaincover.incgraph import (check_metric_lemma, inc_components,
                                 inc_distance_path)
from chaincover.patterns import Embedding, embeds, validate_embedding
from chaincover.reduction import cover_bound_report
from chaincover.selftest import LAWS
from chaincover.symbolic import (Antichain, Cardinal, Chain, Dual, Grid, LexSum,
                                 OMEGA, cov_symbolic, obstruction_list,
                                 parse_term, realize, term_to_text)

import oracles
from conftest import record


def cov(p) -> int:
    return min_chain_cover(p).width


@pytest.fixture(scope="module")
def instances():
    """The 1,000 seeded posets shared by criteria 1, 3, 5, 6 and 12."""
    out = []
    for i in range(1000):
        p_edge = (0.05, 0.1, 0.3)[i % 3]
        out.append(random_poset(40, p_edge, 20_000 + i))
    return out


def test_criterion_1_dilworth_equality(instances):
    start = time.time()
    ok = all(LAWS["dilworth equality"](p) for p in instances)
    for i in range(120):
        small = random_poset(1 + i % 14, (0.1, 0.3, 0.6)[i % 3], 31_000 + i)
        if cov(small) != oracles.brute_max_antichain_size(small):
            ok = False
    elapsed = time.time() - start
    ok = ok and elapsed < 60
    record(1, f"Dilworth equality on 1000 instances ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_2_grid_formula():
    ok = all(cov(grid_upper(n)) == n // 2 for n in range(2, 9))
    ok = ok and all(
        oracles.brute_max_antichain_size(grid_upper(n)) == n // 2
        for n in range(2, 7))
    ok = ok and all(
        len(oracles.brute_max_antichain(grid_upper(n))) == n // 2
        for n in range(7, 9))
    ok = ok and all(cov(grid_upper(n)) == n // 2 for n in range(9, 41))
    record(2, "Cov(grid_upper(n)) = floor(n/2) for n = 2..40", ok)
    assert ok


def test_criterion_3_duality(instances):
    ok = all(LAWS["cov duality"](p) for p in instances)
    record(3, "Cov(P) = Cov(dual(P)) on all instances", ok)
    assert ok


@pytest.fixture(scope="module")
def connected_inc_instances():
    """200 seeded n=30 posets whose incomparability graph is connected."""
    out = []
    seed = 40_000
    while len(out) < 200:
        p = random_poset(30, 0.08, seed)
        seed += 1
        if len(inc_components(p)) == 1:
            out.append(p)
    return out


def test_criterion_4_metric_lemma(connected_inc_instances):
    violations = 0
    pairs = 0
    for p in connected_inc_instances:
        for x in range(p.n):
            for y in iter_bits(p.up[x]):
                rep = check_metric_lemma(p, x, y)
                pairs += 1
                if not rep.ok:
                    violations += 1
    ok = violations == 0 and pairs > 0
    record(4, f"metric lemma on {pairs} comparable pairs, 0 violations", ok)
    assert ok


def test_criterion_5_decomposition_round_trip(instances):
    ok = all(LAWS["decomposition round trip"](p)
             and LAWS["cov equals part maximum"](p) for p in instances)
    record(5, "recompose(inc_components(P)) = P and Cov = part max", ok)
    assert ok


def test_criterion_6_claim1_reduction(instances):
    ok = all(LAWS["antichain restriction postconditions"](p) for p in instances)
    record(6, "claim-1 postconditions at t = Cov(P) on all instances", ok)
    assert ok


def test_criterion_7_claim2_inclusions():
    checked = 0
    ok = True
    for i in range(200):
        p = random_poset(20, (0.1, 0.2)[i % 2], 50_000 + i)
        for x in range(p.n):
            for y in iter_bits(p.up[x]):
                if inc_distance_path(p, x, y) is None:
                    continue
                rep = cover_bound_report(p, x, y)
                checked += 1
                if not (rep.inclusion1_ok and rep.inclusion2_ok and rep.bound_ok):
                    ok = False
    ok = ok and checked > 0
    record(7, f"claim-2(b) inclusions on {checked} valid pairs", ok)
    assert ok


def test_criterion_8_ideal_chain_embedding():
    start = time.time()
    ok = True
    for n in range(4, 13):
        for m in range(2, n):
            poset, ideals = canonical_ideal_chain(n, m)
            c = IdealChain(poset, ideals)
            # supply condition: layer a retains a chain of length >= m - a
            assert all(len(layer) >= m - a for a, layer in enumerate(c.layers))
            result = embed_from_ideal_chain(c)
            if not isinstance(result, Embedding):
                ok = False
                continue
            if not validate_embedding(result):
                ok = False
            i = 0
            for a in range(m):
                for b in range(a + 1, m):
                    if result.mapping[i] not in c.layers[a]:
                        ok = False
                    i += 1
    elapsed = time.time() - start
    ok = ok and elapsed < 10
    record(8, f"ideal-chain embeddings n=4..12 ({elapsed:.1f}s)", ok)
    assert ok


def test_criterion_9_embedding_search():
    ok = True
    for i in range(300):
        p = random_poset(4 + i % 13, (0.15, 0.3, 0.5)[i % 3], 60_000 + i)
        q = random_poset(2 + i % 6, (0.2, 0.4)[i % 2], 70_000 + i)
        found = embeds(p, q)
        if (found is not None) != oracles.brute_embeds(p, q):
            ok = False
        if found is not None and not validate_embedding(found):
            ok = False
    record(9, "embeds agrees with the all-injections oracle on 300 pairs", ok)
    assert ok


def test_criterion_10_symbolic_fixtures():
    ok = cov_symbolic(Grid(Cardinal.aleph(1))).to_text() == "aleph(1)"
    fam = parse_term("lexsumfam(inc,w,aleph(succ_n))")
    ok = ok and cov_symbolic(fam).to_text() == "aleph(w)"
    succ = [term_to_text(t) for t in obstruction_list(Cardinal.aleph(1))]
    ok = ok and succ == ["grid(aleph(1))", "dual(grid(aleph(1)))"]
    limit = [term_to_text(t) for t in obstruction_list(Cardinal.aleph(OMEGA))]
    ok = ok and limit == [
        "lexsumfam(inc,w,aleph(succ_n))",
        "lexsumfam(dec,w,aleph(succ_n))",
        "dual(lexsumfam(inc,w,aleph(succ_n)))",
        "dual(lexsumfam(dec,w,aleph(succ_n)))",
    ]
    record(10, "symbolic reproduction of the stated equalities", ok)
    assert ok


def test_criterion_11_symbolic_finite_consistency():
    import random
    rng = random.Random(424242)

    def term(depth: int):
        kinds = ["grid", "chain", "antichain"]
        if depth:
            kinds += ["dual", "lexsum"]
        kind = rng.choice(kinds)
        if kind == "grid":
            return Grid(Cardinal.finite(rng.randint(2, 7)))
        if kind == "chain":
            return Chain(Cardinal.finite(rng.randint(0, 5)))
        if kind == "antichain":
            return Antichain(rng.randint(0, 4))
        if kind == "dual":
            return Dual(term(depth - 1))
        return LexSum(tuple(term(depth - 1) for _ in range(rng.randint(1, 3))))

    ok = True
    for _ in range(50):
        t = term(2)
        want = cov_symbolic(t)
        if not want.is_finite or cov(realize(t)) != want.size:
            ok = False
    record(11, "cov_symbolic(T) = Cov(realize(T)) on 50 finite terms", ok)
    assert ok


def test_criterion_12_finite_purity(instances):
    ok = all(LAWS["purity characterization"](p) for p in instances)
    for i in range(200):
        small = random_poset(1 + i % 16, (0.15, 0.4)[i % 2], 80_000 + i)
        if is_pure(small) != oracles.brute_is_pure(small):
            ok = False
    record(12, "is_pure(P) iff P has a greatest element", ok)
    assert ok
