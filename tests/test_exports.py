"""Every name a module exports resolves, so `from hybridseq.<module> import *`
never names something that is gone.  The package itself declares no
`__all__`: its `import *` takes the names `__init__` imports, and a stale
one of those fails the import."""

import importlib
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
