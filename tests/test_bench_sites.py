"""The benchmark tracer wraps gapstress functions at their lookup sites;
only such a site may bind an import that its module never uses."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "gapbench" / "tracing.py"


def _sites():
    spec = importlib.util.spec_from_file_location("gapbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.SITES


@pytest.mark.parametrize("module,attr,span", _sites())
def test_tracer_site_resolves(module, attr, span):
    # a dropped name would crash only the traced benchmark round
    assert callable(getattr(importlib.import_module(module), attr, None)), span


def _unused_imports(source: str) -> set[str]:
    """Names bound by module-level imports that no expression reads."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(a.asname or a.name).split(".")[0] for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return bound - used


def test_unused_imports_are_tracer_sites():
    sites = {(module, attr) for module, attr, _ in _sites()}
    for path in sorted((ROOT / "src" / "gapstress").glob("*.py")):
        if path.name == "__init__.py":
            continue
        module = f"gapstress.{path.stem}"
        dead = {name for name in _unused_imports(path.read_text()) if (module, name) not in sites}
        assert not dead, f"{module} imports but never uses {sorted(dead)}"


def test_unused_import_guard_sees_an_added_import():
    assert _unused_imports("import os\nfrom math import pi, tau\nx = tau\n") == {"os", "pi"}
