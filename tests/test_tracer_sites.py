"""Every lookup site the benchmark's tracer wraps still exists.

``perfbench/tracer.py`` patches each function under every name its callers
look it up by; a site that a refactor drops raises ``TraceBroken`` only
when a traced benchmark run installs the tracer.  This test loads the
tracer by path and resolves every site, so a dropped name fails here.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_site_resolves_to_a_callable():
    tracer = load_tracer()
    assert tracer.SITES
    for path, attr, name in tracer.SITES:
        importlib.import_module("chaincover." + path.partition(".")[0])
        owner = tracer._owner(path)
        assert callable(getattr(owner, attr, None)), f"{path}.{attr} ({name})"


def test_find_grid_reaches_the_cover_layer(monkeypatch):
    # a traced search run fails unless it records a ``cover`` span, and
    # find-grid is its only caller of the cover layer: every host that
    # embeds_grid does not reject by size or height goes through the name
    # the tracer wraps
    from chaincover import cover, patterns
    from chaincover.core import dual
    from chaincover.generators import antichain, chain, grid_upper, random_poset

    assert ("cover", "min_chain_cover", "cover.min_chain_cover") in load_tracer().SITES
    calls = []
    real = cover.min_chain_cover
    monkeypatch.setattr(cover, "min_chain_cover",
                        lambda p, *args: calls.append(p) or real(p, *args))
    hosts = [chain(20), antichain(20), grid_upper(8), dual(grid_upper(8))]
    hosts += [random_poset(15 + 5 * seed, (0.1, 0.2)[seed % 2], seed)
              for seed in range(12)]
    reached = 0
    for p in hosts:
        for k in range(2, 8):
            calls.clear()
            try:
                patterns.embeds_grid(p, k, budget=0)
            except patterns.BudgetExhausted:
                pass
            need = 2 * k - 3
            passes = k * (k - 1) // 2 <= p.n and patterns._height(p, need) >= need
            assert any(c is p for c in calls) == passes, (p.n, k)
            reached += passes
    assert reached > 30
