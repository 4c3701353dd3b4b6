"""Every name that a ``srklab`` module lists in ``__all__`` must exist, so
that ``from srklab.<module> import *`` keeps working after deletions."""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import srklab

MODULES = sorted(m.name for m in pkgutil.iter_modules(srklab.__path__, "srklab."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
