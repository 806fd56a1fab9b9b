"""Run the usage examples in the modules that carry them, so a
docstring example cannot drift from what the code returns."""

import doctest
import importlib

import pytest

MODULES = [
    "repro.net.ipv4",
    "repro.net.prefix",
    "repro.bgp.formats",
    "repro.weblog.entry",
]


@pytest.mark.parametrize("name", MODULES)
def test_module_examples(name):
    module = importlib.import_module(name)
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{name} has no examples left to run"
    assert result.failed == 0
