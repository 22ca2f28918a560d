"""The benchmark tracer's TRACED names must exist in the package.

``perfbench/tracer.py`` wraps each listed function when the benchmark
runs with tracing on, and raises on a name that no longer exists; this
test catches a renamed or deleted traced function in the tier-1 suite
instead.  The tracer is loaded from its file without writing bytecode
next to it.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def test_every_traced_name_resolves(monkeypatch):
    traced = _traced(monkeypatch)
    assert traced
    for span, module_name, path in traced:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{path} is not callable"
