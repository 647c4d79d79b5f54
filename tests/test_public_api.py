"""The public surface: every name a module exports resolves."""

import importlib
import pkgutil

import khoarrow


def test_every_name_in_every_all_is_an_attribute_of_its_module():
    modules = [khoarrow] + [importlib.import_module(f"khoarrow.{m.name}")
                            for m in pkgutil.iter_modules(khoarrow.__path__)]
    assert len(modules) >= 11
    for module in modules:
        missing = [name for name in module.__all__
                   if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)
