"""The package root's ``__all__`` must match what it actually exports.

A name deleted from its module but left in ``__all__`` (or imported at
the root but never listed) is caught here rather than by the first
``from pssdet import *`` that trips over it.  Importing the CLI must
also leave out modules that only ``--jobs`` above 1 uses.
"""

import os
import subprocess
import sys
import types

import pssdet


def test_all_lists_exactly_the_public_names():
    public = {name for name, value in vars(pssdet).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(set(pssdet.__all__)) == len(pssdet.__all__), "__all__ repeats a name"
    assert set(pssdet.__all__) == public


def test_every_exported_name_resolves():
    for name in pssdet.__all__:
        assert hasattr(pssdet, name), f"pssdet.{name} is missing"


def test_cli_import_leaves_out_the_process_pool_and_csv():
    # A --jobs 1 run never builds a process pool, so importing the CLI
    # must not pay for concurrent.futures, multiprocessing or csv.
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    code = ("import pssdet.cli, sys; print(sorted(m for m in "
            "('concurrent.futures', 'multiprocessing', 'csv') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src)).stdout
    assert out.strip() == "[]"
