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
