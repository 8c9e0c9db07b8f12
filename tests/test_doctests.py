import doctest
import importlib
import pkgutil

import stonesheaf


def test_doctests():
    for info in pkgutil.iter_modules(stonesheaf.__path__):
        mod = importlib.import_module(f"stonesheaf.{info.name}")
        result = doctest.testmod(mod)
        assert result.failed == 0, mod.__name__
