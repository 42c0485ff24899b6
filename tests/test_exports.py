"""Every name a module exports resolves, so `from hybridseq.<module> import *`
never names something that is gone.  The package itself declares no
`__all__`: its `import *` takes the names `__init__` imports, and a stale
one of those fails the import.  Likewise every function the benchmark's
tracer wraps (`perfbench/workloads.py`'s `TRACED`) still exists."""

import importlib
import importlib.util
import os
import pkgutil
import subprocess
import sys

import pytest

import hybridseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(hybridseq.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hybridseq.{name}")
    assert hasattr(module, "__all__"), f"hybridseq.{name} declares no __all__"
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def test_traced_functions_resolve(monkeypatch):
    # `run.py --trace 1` wraps each (owner, attribute) with getattr and
    # crashes on a missing one, so the benchmark module itself is loaded,
    # as run.py loads it, with its own directory on the path
    bench = os.path.join(os.path.dirname(__file__), "..", "perfbench")
    monkeypatch.syspath_prepend(bench)
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", os.path.join(bench, "workloads.py"))
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.TRACED
    missing = [name for owner, attr, name in workloads.TRACED
               if not callable(getattr(owner, attr, None))]
    assert missing == []


def test_importing_the_package_loads_no_scipy():
    # scipy is a test dependency only; a fresh interpreter shows what the
    # package and its command line pull in
    src = os.path.dirname(os.path.dirname(hybridseq.__file__))
    code = ("import sys, hybridseq, hybridseq.cli; "
            "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))")
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    assert out.stdout.strip() == "[]"
