"""The benchmark tracer must find the package's functions and their calls.

``perfbench/tracer.py`` wraps each listed function when the benchmark
runs with tracing on, raises on a name that no longer exists, and
``perfbench/run.py`` fails a traced run in which an expected span
recorded no call.  These tests catch a renamed or deleted traced
function, and a call path that goes around a traced wrapper, in the
tier-1 suite instead.  The benchmark's modules are loaded from their
files without writing bytecode next to them.
"""

import contextlib
import importlib
import importlib.util
import io
import sys
from pathlib import Path

import pytest

from pssdet import cli, detector

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(monkeypatch, name):
    """perfbench/<name>.py as module ``name``, registered in sys.modules
    for the test (dataclasses and run.py's imports look it up there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.setattr(sys, "path", list(sys.path))
    spec = importlib.util.spec_from_file_location(name, BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(monkeypatch):
    traced = _load(monkeypatch, "tracer").TRACED
    assert traced
    for span, module_name, path in traced:
        owner = importlib.import_module(module_name)
        for part in path.split("."):
            assert hasattr(owner, part), f"{span}: {module_name}.{path} is missing"
            owner = getattr(owner, part)
        assert callable(owner), f"{span}: {module_name}.{path} is not callable"


@pytest.fixture(scope="module")
def thresholds(tmp_path_factory):
    out = tmp_path_factory.mktemp("thresholds")
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["calibrate", "--engines",
                         "mf_opt:os1,mf_opt:os2,cluster:k6:os2,cluster:k8:os2,"
                         "cluster:k16:os2", "--trials", "100", "--seed", "3",
                         "--output-dir", str(out)]) == 0
    return str(out / "thresholds.json")


@pytest.mark.parametrize("workload", ["calibrate", "pmd_awgn", "acq_tu6"])
def test_traced_round_records_every_expected_span(monkeypatch, tmp_path,
                                                  thresholds, workload):
    tracer = _load(monkeypatch, "tracer").Tracer()
    work = _load(monkeypatch, "workloads").WORKLOADS[workload]
    expected = _load(monkeypatch, "run").EXPECTED_SPANS[workload]
    # Build the engines inside the traced round, as a fresh worker does.
    detector._cached_batch.cache_clear()
    argv = work.round_argv(7, 0, str(tmp_path / "round"),
                           thresholds if work.needs_thresholds else None)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(argv) == 0
    finally:
        tracer.uninstall()
    recorded = {span[2] for span in tracer.spans}
    # cli.main is the span the benchmark's worker opens around each round.
    assert [n for n in expected if n != "cli.main" and n not in recorded] == []
