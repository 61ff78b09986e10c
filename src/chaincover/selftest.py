"""Seeded invariant sweep across all modules, used by ``chaincover selftest``.

Each round draws random posets and checks the cross-module laws that must
hold on every instance: order axioms, the Dilworth equality, covering
duality, the decomposition round trip and its max rule, the incomparability
metric consequences, the purity characterization, the partition identity,
and the antichain-restriction postconditions.  A failed law prints
``FAIL <law>: seed=.. n=.. p=..``, which ``random_poset(n, p, seed)`` rebuilds.
"""

from __future__ import annotations

from . import core, cover, generators, incgraph, reduction
from .core import iter_bits


def _axioms_hold(p: core.Poset) -> bool:
    for x in range(p.n):
        if p.lt(x, x):
            return False
        for y in iter_bits(p.up[x]):
            if p.lt(y, x):
                return False
            if p.up[y] & ~p.up[x]:
                return False
    return True


def run(seed: int = 2024, rounds: int = 25) -> tuple[int, int]:
    if rounds < 1:
        raise core.PreconditionError(f"rounds must be at least 1, got {rounds}")
    passed = failed = 0

    def check(name: str, ok: bool) -> None:
        nonlocal passed, failed
        if ok:
            passed += 1
        else:
            failed += 1
            print(f"FAIL {name}: seed={seed + i} n={n} p={prob}")

    for i in range(rounds):
        n = 6 + (i * 7 + seed) % 19
        prob = (0.05, 0.1, 0.3)[i % 3]
        p = generators.random_poset(n, prob, seed + i)

        check("order axioms", _axioms_hold(p))

        cc = cover.min_chain_cover(p)
        check("dilworth equality", cc.width == len(cc.certificate))
        check("cov duality",
              cover.min_chain_cover(core.dual(p)).width == cc.width)

        d = incgraph.inc_components(p)
        check("decomposition round trip", incgraph.recompose(d) == p)
        part_covs = [cover.min_chain_cover(s).width for s in d.part_posets]
        check("cov equals part maximum", cc.width == max(part_covs))

        check("purity characterization",
              core.is_pure(p) == (p.greatest() is not None))

        check("partition identity",
              all(reduction.set_identity_holds(p, x) for x in range(p.n)))

        q, _, _, inc_covs = reduction.claim1_reduce(p, cc.width)
        qw = cover.min_chain_cover(q).width
        inc_widths = tuple(
            cover.min_chain_cover(core.induced(q, iter_bits(q.inc_mask(x)))[0]).width
            for x in range(q.n))
        check("antichain restriction postconditions",
              qw >= cc.width and max(inc_widths) < cc.width and inc_covs == inc_widths)

        metric_ok = True
        pairs = [(x, y) for x in range(p.n) for y in iter_bits(p.up[x])]
        for x, y in pairs[:20]:
            if incgraph.inc_distance_path(p, x, y) is None:
                continue
            if not incgraph.check_metric_lemma(p, x, y).ok:
                metric_ok = False
        check("incomparability metric", metric_ok)

    return passed, failed
