"""Every law in ``selftest.LAWS`` can fail.

A forged ``Poset`` (rows that are not a closed strict order) breaks the laws
that read the relation directly.  The cover kernel checks its own Dilworth
certificate and rejects every forged relation it is given, so the laws built
on it are broken by replacing a kernel with one that lies.
"""

import dataclasses

import pytest

from chaincover import core, cover, reduction
from chaincover.core import Poset
from chaincover.generators import antichain, chain, random_poset
from chaincover.selftest import LAWS

CYCLE = Poset(2, (0b10, 0b01))  # 0 < 1 < 0


def drop_certificate(monkeypatch):
    real = cover.min_chain_cover
    monkeypatch.setattr(cover, "min_chain_cover", lambda p, mask=None: (
        dataclasses.replace(real(p, mask), certificate_mask=0)))


def dual_is_antichain(monkeypatch):
    monkeypatch.setattr(core, "dual", lambda p: antichain(p.n))


def drop_inc_covs(monkeypatch):
    real = reduction.claim1_reduce
    monkeypatch.setattr(reduction, "claim1_reduce",
                        lambda p, t: real(p, t)._replace(inc_covs=()))


BREAKS = {
    "order axioms": (CYCLE, None),
    "dilworth equality": (chain(3), drop_certificate),
    "cov duality": (chain(3), dual_is_antichain),
    "decomposition round trip": (CYCLE, None),
    # 1 < 2 < 1 and 2 < 0, but not 1 < 0
    "cov equals part maximum": (Poset(3, (0b000, 0b100, 0b011)), None),
    "purity characterization": (CYCLE, None),
    "partition identity": (CYCLE, None),
    "antichain restriction postconditions": (chain(3), drop_inc_covs),
    # 0 < 1 < 2 < 3 without the transitive pairs
    "incomparability metric": (Poset(4, (0b0010, 0b0100, 0b1000, 0)), None),
}


def test_every_law_has_a_break():
    assert list(BREAKS) == list(LAWS)


@pytest.mark.parametrize("name", list(BREAKS))
def test_law_can_fail(name, monkeypatch):
    p, patch = BREAKS[name]
    law = LAWS[name]
    real = random_poset(12, 0.2, 5)
    assert law(real)
    if patch is not None:
        patch(monkeypatch)
    assert law(p) is False
