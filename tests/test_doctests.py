"""Run the examples in the docstrings of every ayrep module."""

import doctest
import importlib
import pkgutil

import ayrep


def test_module_doctests_pass():
    names = ["ayrep"] + [f"ayrep.{m.name}" for m in pkgutil.iter_modules(ayrep.__path__)]
    attempted = 0
    for name in names:
        result = doctest.testmod(importlib.import_module(name))
        assert result.failed == 0, f"{result.failed} doctest failures in {name}"
        attempted += result.attempted
    assert attempted > 0
