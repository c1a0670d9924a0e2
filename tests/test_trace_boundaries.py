"""The benchmark's tracer must find every function it wraps.

``perfbench/tracing.py`` patches raccess functions by (owner, attribute);
a rename inside raccess would otherwise surface only in a traced
benchmark run.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tracing():
    path = os.path.join(ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_boundary_resolves():
    boundaries = load_tracing().BOUNDARIES
    assert boundaries
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in boundaries
        if not callable(getattr(owner, attr, None))
    ]
    assert missing == []
