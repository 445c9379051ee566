"""The package's public surface: every exported name resolves, and every
definition in the package is used by the package, a script or the benchmark."""
from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import gapstress

MODULES = sorted(m.name for m in pkgutil.iter_modules(gapstress.__path__))
# the command-line front end is reached as gapstress.cli and not re-exported
NOT_REEXPORTED = {"cli"}
ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", MODULES)
def test_module_exports_resolve_and_are_reexported(name):
    mod = importlib.import_module(f"gapstress.{name}")
    for attr in mod.__all__:
        assert hasattr(mod, attr), f"gapstress.{name}.__all__ names a missing {attr!r}"
        if name not in NOT_REEXPORTED:
            assert getattr(gapstress, attr, None) is getattr(mod, attr), (
                f"gapstress does not re-export gapstress.{name}.{attr}")


def _definitions(tree: ast.Module) -> dict[str, str]:
    """Qualified name -> name of each top-level function and class and of
    each method of those classes; dunder methods are called implicitly."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            out[node.name] = node.name
        if isinstance(node, ast.ClassDef):
            out.update((f"{node.name}.{m.name}", m.name) for m in node.body
                       if isinstance(m, ast.FunctionDef) and not m.name.startswith("__"))
    return out


def _read_names(tree: ast.Module) -> set[str]:
    """Names and attributes that some expression reads."""
    return {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}


def _test_only(trees: dict[str, ast.Module], words: set[str]) -> set[str]:
    """Definitions of the modules ``trees`` (except ``__init__``) that no
    expression in those modules reads and that ``words`` does not name."""
    read = set().union(*map(_read_names, trees.values())) | words
    return {f"{module}.{qual}" for module, tree in trees.items() if module != "__init__"
            for qual, name in _definitions(tree).items() if name not in read}


def test_src_holds_no_test_only_definitions():
    # what only tests read belongs in tests/oracles.py; the scripts and the
    # benchmark's tracer and gates are named by their source text
    trees = {p.stem: ast.parse(p.read_text()) for p in (ROOT / "src" / "gapstress").glob("*.py")}
    outside = [*(ROOT / "scripts").glob("*.py"), *(ROOT / "gapbench").glob("*.py")]
    words = {w for p in outside for w in re.findall(r"\w+", p.read_text())}
    unused = _test_only(trees, words)
    assert not unused, f"only tests use {sorted(unused)}; move them to tests/oracles.py"


def test_test_only_guard_sees_an_unread_definition():
    source = ("def f(): pass\ndef g(): pass\nclass C:\n    def __init__(self): pass\n"
              "    def m(self): pass\n    def n(self): pass\nf(C().m)\n")
    trees = {"mod": ast.parse(source)}
    assert _test_only(trees, set()) == {"mod.g", "mod.C.n"}
    # a name the scripts or the benchmark spell out counts as used
    assert _test_only(trees, {"n"}) == {"mod.g"}
