"""Shared set-up: CLI child processes import the same fuzzyqm as the tests.

pytest puts ``src`` on ``sys.path`` (``pythonpath`` in pyproject.toml), but a
``python -m fuzzyqm.cli`` child process sees only its environment, so the
package's parent directory is prepended to the child's PYTHONPATH.
"""

import os
from pathlib import Path

import pytest

import fuzzyqm


@pytest.fixture(autouse=True, scope="session")
def _cli_children_import_this_fuzzyqm():
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PYTHONPATH", str(Path(fuzzyqm.__file__).resolve().parent.parent), prepend=os.pathsep)
        yield
