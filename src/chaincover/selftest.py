"""Seeded invariant sweep across all modules, used by ``chaincover selftest``.

``LAWS`` states each cross-module law once, as a predicate on a nonempty
poset, and the acceptance suite runs the same table.  Each round of
:func:`run` checks every law on one random poset; a failed law gives the
line ``FAIL <law>: seed=.. n=.. p=..``, which ``random_poset(n, p, seed)``
rebuilds.
"""

from __future__ import annotations

from . import core, cover, generators, incgraph, reduction
from .core import iter_bits


def _cov(p: core.Poset) -> int:
    return cover.min_chain_cover(p).width


def _axioms_hold(p: core.Poset) -> bool:
    for x in range(p.n):
        if p.lt(x, x):
            return False
        for y in iter_bits(p.up[x]):
            if p.lt(y, x) or p.up[y] & ~p.up[x]:
                return False
    return True


def _splits_at(p: core.Poset, x: int) -> bool:
    """The partition identity P = ↓x ∪ ↑x ∪ Inc_x, checked exactly."""
    up = p.up[x] | (1 << x)
    down = p.down[x] | (1 << x)
    inc = p.inc_mask(x)
    return (up | down | inc == p.full_mask
            and up & down == 1 << x
            and not inc & (up | down))


def _claim1_postconditions(p: core.Poset) -> bool:
    # at t = Cov(P), Q and each Cov(Inc_x(Q)) are measured on induced copies
    t = _cov(p)
    mask, _, inc_covs, *_ = reduction.claim1_reduce(p, t)
    q, q_map = core.induced(p, mask)
    inc_widths = {q_map[x]: _cov(core.induced(q, q.inc_mask(x))[0])
                  for x in range(q.n)}
    return _cov(q) >= t and max(inc_widths.values()) < t and inc_covs == inc_widths


def _round_trip(p: core.Poset) -> bool:
    comps = incgraph.inc_components(p)
    parts = [core.induced(p, c)[0] for c in comps]
    return incgraph.recompose(p.n, comps, parts) == p


def _metric(p: core.Poset) -> bool:
    # the first 20 comparable pairs that Inc(P) joins
    pairs = [(x, y) for x in range(p.n) for y in iter_bits(p.up[x])]
    return all(incgraph.check_metric_lemma(p, x, y).ok for x, y in pairs[:20]
               if incgraph.inc_distance_path(p, x, y) is not None)


LAWS = {
    "order axioms": _axioms_hold,
    "dilworth equality":
        lambda p: _cov(p) == cover.min_chain_cover(p).certificate_mask.bit_count(),
    "cov duality": lambda p: _cov(core.dual(p)) == _cov(p),
    "decomposition round trip": _round_trip,
    "cov equals part maximum": lambda p: _cov(p) == max(
        cover.min_chain_cover(p, c).width for c in incgraph.inc_components(p)),
    "purity characterization":
        lambda p: core.is_pure(p) == (p.greatest() is not None),
    "partition identity": lambda p: all(_splits_at(p, x) for x in range(p.n)),
    "antichain restriction postconditions": _claim1_postconditions,
    "incomparability metric": _metric,
}


def run(seed: int, rounds: int) -> tuple[int, list[str]]:
    """The number of laws that held over ``rounds`` rounds, and a ``FAIL``
    line for each one that failed, in the order they were checked."""
    if rounds < 1:
        raise core.PreconditionError(f"rounds must be at least 1, got {rounds}")
    passed, failures = 0, []
    for i in range(rounds):
        n = 6 + (i * 7 + seed) % 19
        prob = (0.05, 0.1, 0.3)[i % 3]
        p = generators.random_poset(n, prob, seed + i)
        for name, law in LAWS.items():
            if law(p):
                passed += 1
            else:
                failures.append(f"FAIL {name}: seed={seed + i} n={n} p={prob}")
    return passed, failures
