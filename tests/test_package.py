"""The package root's ``__all__`` must match what it actually exports.

A name deleted from its module but left in ``__all__`` (or imported at
the root but never listed) is caught here rather than by the first
``from pssdet import *`` that trips over it.
"""

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
