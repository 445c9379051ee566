"""The benchmark tracer wraps gapstress functions at their lookup sites;
only such a site may bind an import that its module never uses.  The
benchmark's identities workload counts the checks of one ``run_verify``."""
from __future__ import annotations

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from gapstress import parse_config, run_verify

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "gapbench" / "tracing.py"
WORKLOADS = ROOT / "gapbench" / "workloads.py"


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


def _checks_per_verify() -> int:
    """CHECKS_PER_VERIFY of the benchmark's workloads, read without importing
    the benchmark package."""
    for node in ast.parse(WORKLOADS.read_text()).body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "CHECKS_PER_VERIFY" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no CHECKS_PER_VERIFY in {WORKLOADS}")


def test_run_verify_makes_the_checks_the_benchmark_counts():
    # the identities workload raises when a passing run_verify reports a
    # different number of checks than it counts
    lines = run_verify(parse_config(ROOT / "configs" / "disk.cfg"), eps=1e-4)
    checks = [line for line in lines if not line.startswith("info")]
    assert len(checks) == _checks_per_verify()
