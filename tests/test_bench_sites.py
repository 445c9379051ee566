"""The benchmark tracer wraps gapstress functions at their lookup sites."""
from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "gapbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("gapbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SITES


@pytest.mark.parametrize("module,attr,span", _sites())
def test_tracer_site_resolves(module, attr, span):
    # a dropped name would crash only the traced benchmark round
    assert callable(getattr(importlib.import_module(module), attr, None)), span
