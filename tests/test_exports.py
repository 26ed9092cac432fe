"""Every name a module lists in __all__ exists, so `from zrlab.<module> import *`
cannot break on a deleted function whose entry was left behind."""

import importlib
import pkgutil

import pytest

import zrlab

MODULES = ["zrlab"] + [f"zrlab.{m.name}" for m in pkgutil.iter_modules(zrlab.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
