"""Every name a module exports resolves, so `from hybridseq.<module> import *`
never names something that is gone.  The package itself declares no
`__all__`: its `import *` takes the names `__init__` imports, and a stale
one of those fails the import.  Likewise every function the benchmark's
tracer wraps (`perfbench/workloads.py`'s `TRACED`) still exists."""

import ast
import importlib
import os
import pkgutil

import pytest

import hybridseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(hybridseq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hybridseq.{name}")
    assert hasattr(module, "__all__"), f"hybridseq.{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def traced_targets():
    """(owner, attribute) of every `TRACED` entry, read from the source
    without importing the benchmark: owner is a dotted path under the
    package, such as "training.AdamW"."""
    path = os.path.join(os.path.dirname(__file__), "..", "perfbench", "workloads.py")
    with open(path, encoding="utf-8") as f:
        tree = ast.parse(f.read())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "TRACED" for t in node.targets):
            return [(ast.unparse(e.elts[0]), e.elts[1].value) for e in node.value.elts]
    raise AssertionError("perfbench/workloads.py defines no TRACED list")


def test_traced_functions_resolve():
    targets = traced_targets()
    assert targets
    missing = []
    for owner, attr in targets:
        obj = hybridseq
        for part in owner.split("."):
            obj = getattr(obj, part, None)
        if not callable(getattr(obj, attr, None)):
            missing.append(f"{owner}.{attr}")
    assert missing == []
