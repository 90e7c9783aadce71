"""The examples in the module docstrings run and pass."""

import doctest
import importlib

import pytest


@pytest.mark.parametrize("name", ["scalar", "canon", "cheb", "config", "projectors"])
def test_module_examples(name):
    result = doctest.testmod(importlib.import_module(f"atlq.{name}"))
    assert result.attempted > 0
    assert result.failed == 0
