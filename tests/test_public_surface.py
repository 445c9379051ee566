"""The package's public surface: every exported name resolves."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import gapstress

MODULES = sorted(m.name for m in pkgutil.iter_modules(gapstress.__path__))
# the command-line front end is reached as gapstress.cli and not re-exported
NOT_REEXPORTED = {"cli"}


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_are_reexported(name):
    mod = importlib.import_module(f"gapstress.{name}")
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"gapstress.{name}.__all__ names a missing {attr!r}"
        if name not in NOT_REEXPORTED:
            assert getattr(gapstress, attr, None) is getattr(mod, attr), (
                f"gapstress does not re-export gapstress.{name}.{attr}")
