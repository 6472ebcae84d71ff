"""Every exported name resolves, so an export cannot outlive the code it names."""

import importlib

import pytest


@pytest.mark.parametrize("module", ["fuzzyqm", "fuzzyqm.numerics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)
