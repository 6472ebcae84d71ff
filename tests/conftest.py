"""Shared set-up: CLI child processes import the same fuzzyqm as the tests, and no test inherits a cache entry.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but a
``python -m fuzzyqm.cli`` child process sees only its environment, so the
package's parent directory is prepended to the child's PYTHONPATH.

The oscillator's shared Toeplitz-Hermite product is cached per grid; a test
that patches what fills the cache (``_hermite_basis``) would otherwise be
answered from an entry an earlier test left on the same grid.
"""

import os
from pathlib import Path

import pytest

import fuzzyqm
from fuzzyqm import oscillator


@pytest.fixture(autouse=True, scope="session")
def _cli_children_import_this_fuzzyqm():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(fuzzyqm.__file__).resolve().parent.parent), prepend=os.pathsep)
        yield


@pytest.fixture(autouse=True)
def _empty_oscillator_product_cache():
    oscillator._toeplitz_hermite.cache_clear()
    yield
