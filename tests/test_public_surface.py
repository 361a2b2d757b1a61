"""Every name a module of ``repro`` exports in ``__all__`` exists.

A deletion that leaves a stale re-export behind (a package ``__init__``
still listing a class its submodule no longer defines) would otherwise
surface only as an ``ImportError`` on ``from package import *``.
"""

import importlib
import pkgutil

import repro


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        yield importlib.import_module(info.name)


def test_every_all_entry_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in _modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []
