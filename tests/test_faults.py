"""Every certificate check of the cover kernel, of the threshold reduction
and of the two embedding searches fires on the fault it exists for.

Each test runs real input through a kernel patched to make one fault and
asserts the message of the check that catches it.  The cover kernel's
faults come from a Hopcroft-Karp that returns a broken matching or
antichain; both ways to build a matched cover, ``min_chain_cover`` and
``reversed_cover``, reach the same checks.  The reduction's come from a
``min_chain_cover`` whose width is off by one.  The searches' come from a
``validate_embedding`` that rejects every embedding, and from a
``validate_ideal_chain`` that passes a chain whose first ideal is not
downward closed.  The last check of ``embed_from_ideal_chain``, "image
escaped its layer", reads the same layer masks its candidates are drawn
from, so it sees images shifted by one position through the module's
``zip``, which pairs positions with images.  The metric lemma's interval
check sees an ``interval_cover`` that leaves one element uncovered, and
the cycle report's reconstruction a start that lies on no cycle.
"""

import builtins
import dataclasses
import functools
import re

import pytest

from chaincover import cli, cover, ideal_embed, incgraph, patterns, reduction
from chaincover.core import (InternalInconsistency, _find_cycle, from_relations,
                             iter_bits)
from chaincover.cover import min_chain_cover, reversed_cover
from chaincover.generators import (antichain, canonical_ideal_chain, chain,
                                   grid_upper)


def link_two_heads(mask, match_l, match_r, cert, free_l, free_r):
    """The first chain's bottom gets the second's as its successor, a link
    that is no relation on an antichain."""
    first, second = list(iter_bits(free_r))[:2]
    match_l[first] = second
    return cert, free_l, free_r


def share_a_successor(mask, match_l, match_r, cert, free_l, free_r):
    """The second chain's bottom takes the first bottom's successor too."""
    first, second = list(iter_bits(free_r))[:2]
    match_l[second] = match_l[first]
    return cert, free_l, free_r


def whole_mask_as_certificate(mask, match_l, match_r, cert, free_l, free_r):
    return mask, free_l, free_r


def certificate_beyond_mask(mask, match_l, match_r, cert, free_l, free_r):
    return cert | (~mask & (mask + 1)), free_l, free_r


def one_augmentation_short(mask, match_l, match_r, cert, free_l, free_r):
    """The lowest link undone: the matching of the augmentation before."""
    u = next(u for u in iter_bits(mask) if match_l[u] >= 0)
    v = match_l[u]
    match_l[u] = match_r[v] = -1
    return cert, free_l | 1 << u, free_r | 1 << v


# 0 and 1 below both 2 and 3, so each orientation has two chains whose
# bottoms lie below both tops
BUTTERFLY = from_relations(4, [(0, 2), (0, 3), (1, 2), (1, 3)])

KERNEL_FAULTS = {
    "link not in up": (antichain(2), None, link_two_heads,
                       r"chain breaks at 0,1"),
    "overlapping chains": (BUTTERFLY, None, share_a_successor,
                           r"chains do not partition the subposet"),
    "comparable pair in the certificate": (
        chain(2), None, whole_mask_as_certificate,
        r"certificate not an antichain at \d"),
    "certificate outside the mask": (antichain(3), 0b011, certificate_beyond_mask,
                                     r"certificate leaves the subposet"),
    "one augmentation short": (chain(3), None, one_augmentation_short,
                               r"width 2 != antichain size 1"),
}

# Each way to build a matched cover, as a call made ready with the real
# kernel: ``reversed_cover``'s source is covered before the fault is in
BUILDS = {
    "min_chain_cover": lambda p, mask: functools.partial(min_chain_cover, p, mask),
    "reversed_cover": lambda p, mask: functools.partial(
        reversed_cover, min_chain_cover(p, mask)),
}


@pytest.mark.parametrize("build", list(BUILDS))
@pytest.mark.parametrize("fault", list(KERNEL_FAULTS))
def test_cover_kernel_check_fires(fault, build, monkeypatch):
    p, mask, breaking, message = KERNEL_FAULTS[fault]
    ready = BUILDS[build](p, mask)
    real = cover._max_matching

    def faulty(up, mask, match_l, match_r, free_l, free_r):
        found = real(up, mask, match_l, match_r, free_l, free_r)
        return breaking(mask, match_l, match_r, *found)

    monkeypatch.setattr(cover, "_max_matching", faulty)
    with pytest.raises(InternalInconsistency, match=f"^{message}$"):
        ready()


def off_by_one(monkeypatch, step: int, when=lambda hint: True) -> None:
    """Patch ``reduction.min_chain_cover`` so that each hinted cover that
    ``when`` picks has one chain more (``step`` 1, an empty one) or one
    fewer (``step`` -1, its first dropped) than its certificate's size."""
    real = reduction.min_chain_cover

    def faulty(p, mask=None, hint=None):
        got = real(p, mask, hint=hint)
        if hint is None or not when(hint):
            return got
        chains = got.chain_masks + (0,) if step > 0 else got.chain_masks[1:]
        return dataclasses.replace(got, chain_masks=chains)

    monkeypatch.setattr(reduction, "min_chain_cover", faulty)


def after_claim1(monkeypatch) -> list:
    """Patch ``reduction.claim1_reduce`` to record each result it returns."""
    results = []
    real = reduction.claim1_reduce

    def recording(p, t):
        results.append(real(p, t))
        return results[-1]

    monkeypatch.setattr(reduction, "claim1_reduce", recording)
    return results


def test_a_pass_over_a_wider_q_accepts(monkeypatch):
    # each cut of antichain(3) reads 1 where it has 2: none reaches t = 2
    off_by_one(monkeypatch, -1)
    with pytest.raises(InternalInconsistency, match=re.escape(
            "a pass over Cov(Q) = 3 > 2 accepted nothing")):
        reduction.claim1_reduce(antichain(3), 2)


def test_claim1_keeps_the_threshold(monkeypatch):
    # 0 < 1, 0 < 2 and 3 apart: Cov = 3, and Inc_0 = {3} has one chain but
    # reads 2 = t, so claim 1 accepts 0 and stops at a Q whose antichain
    # certificate has one element
    off_by_one(monkeypatch, 1)
    p = from_relations(4, [(0, 1), (0, 2)])
    with pytest.raises(InternalInconsistency,
                       match="^antichain restriction lost the threshold$"):
        reduction.claim1_reduce(p, 2)


def test_claim1_leaves_l_maximal(monkeypatch):
    # at t = Cov(antichain(3)) no pass runs, and each Inc cut, of width 2,
    # reads 3
    off_by_one(monkeypatch, 1)
    with pytest.raises(InternalInconsistency, match="^restriction left an "
                       "element violating the antichain maximality$"):
        reduction.claim1_reduce(antichain(3), 3)


def test_reduce_finds_a_component_at_the_threshold(monkeypatch):
    # claim 1 runs true; then antichain(3)'s one component reads 2 < t = 3
    done = after_claim1(monkeypatch)
    off_by_one(monkeypatch, -1, lambda hint: bool(done))
    with pytest.raises(InternalInconsistency,
                       match=re.escape("Cov(q) >= t puts a component at t")):
        reduction.reduce(antichain(3), 3)


def test_reduce_finds_a_qualifying_pivot(monkeypatch):
    # claim 1 and the component cover run true; then each pivot's side {x},
    # which needs width ceil((3 - 2) / 2) = 1, reads 0
    done = after_claim1(monkeypatch)
    off_by_one(monkeypatch, -1,
               lambda hint: bool(done) and hint is not done[0].cover)
    with pytest.raises(InternalInconsistency,
                       match="^subadditivity guarantees a qualifying pivot$"):
        reduction.reduce(antichain(3), 3)


def test_embeds_rejects_a_non_embedding(monkeypatch):
    monkeypatch.setattr(patterns, "validate_embedding", lambda e: False)
    with pytest.raises(InternalInconsistency,
                       match="^search returned a non-embedding$"):
        patterns.embeds(chain(3), chain(2))


def test_ideal_embed_rejects_a_non_embedding(monkeypatch):
    monkeypatch.setattr(ideal_embed, "validate_embedding", lambda e: False)
    with pytest.raises(InternalInconsistency,
                       match="^search produced a non-embedding$"):
        ideal_embed.embed_from_ideal_chain(
            ideal_embed.IdealChain(*canonical_ideal_chain(5, 3)))


def test_ideal_embed_finds_an_image_outside_its_layer(monkeypatch):
    # each position gets the image of the next one in search order, so
    # (0, 2), in layer 0, gets the image of (1, 2), from layer 1
    monkeypatch.setattr(ideal_embed, "validate_embedding", lambda e: True)
    monkeypatch.setattr(ideal_embed, "zip", lambda positions, img: builtins.zip(
        positions, img[1:] + img[:1]), raising=False)
    with pytest.raises(InternalInconsistency, match="^image escaped its layer$"):
        ideal_embed.embed_from_ideal_chain(
            ideal_embed.IdealChain(*canonical_ideal_chain(5, 3)))


def test_ideal_embed_finds_a_candidate_above_an_incomparable_image(monkeypatch):
    # on the chain 0 < ... < 5, layer 0 is {0, 1, 3} without 2 below 3:
    # (0, 1), (0, 2) and (1, 2) take 0, 1 and 2, and the one candidate of
    # (0, 3) is 3, above the image of the grid-incomparable (1, 2)
    monkeypatch.setattr(ideal_embed, "validate_ideal_chain", lambda c: ())
    ideals = ({0, 1, 3}, {0, 1, 2, 3}, {0, 1, 2, 3, 4}, set(range(6)))
    c = ideal_embed.IdealChain(chain(6), tuple(map(frozenset, ideals)))
    with pytest.raises(InternalInconsistency,
                       match="^candidate above an incomparable image$"):
        ideal_embed.embed_from_ideal_chain(c)


def test_metric_lemma_reports_an_uncovered_interval_element(monkeypatch, tmp_path,
                                                            capsys):
    # the interval [2, 25] of grid_upper(8) with its least element, 2,
    # left out of the interior's incomparability sets
    real = incgraph.interval_cover

    def one_short(p, path):
        interval, uncovered = real(p, path)
        return interval, uncovered | interval & -interval

    monkeypatch.setattr(incgraph, "interval_cover", one_short)
    g = grid_upper(8)
    report = incgraph.check_metric_lemma(g, 2, 25)
    assert (report.item1_ok, report.item2_ok) == (True, False)
    assert report.violations == (
        "interval element 2 not incomparable to any interior vertex",)
    f = tmp_path / "g.poset"
    f.write_text(g.to_text())
    assert cli.run(["check-metric", str(f), "2", "25"]) == 1
    assert capsys.readouterr().out == "d=3 path=2-7-6-25 item1=ok item2=FAIL\n"


def test_cycle_report_needs_a_cycle_through_its_start():
    # 0 -> 1 -> 2 -> 1: the cycle is 1 -> 2 -> 1, and 0 lies on none
    adj = [0b010, 0b100, 0b010]
    assert _find_cycle(3, adj, 1) == [1, 2]
    with pytest.raises(InternalInconsistency,
                       match="^cycle reported but not reconstructible$"):
        _find_cycle(3, adj, 0)
