"""Every exported name resolves, so an export cannot outlive the code it names; the exports are pinned.

The package itself exports only ``__version__``, and no source module keeps an import it never reads.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import fuzzyqm

EXPORTS = {
    "fuzzyqm.numerics": [
        "MomentumGrid",
        "OperatorMatrix",
        "apply_d1",
        "derivative_matrix",
        "golden_section",
    ],
}

PACKAGE = Path(fuzzyqm.__file__).parent


@pytest.mark.parametrize("module", ["fuzzyqm.numerics"])
def test_every_exported_name_resolves(module):
    mod = importlib.import_module(module)
    missing = [name for name in mod.__all__ if not hasattr(mod, name)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_pinned(module):
    # adding or removing an export must show as a diff of this list
    assert EXPORTS[module] == sorted(EXPORTS[module])
    assert importlib.import_module(module).__all__ == EXPORTS[module]


def test_package_import_loads_no_submodule():
    code = "import sys, fuzzyqm; print(*sorted(m for m in sys.modules if m.startswith('fuzzyqm.')))"
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert r.returncode == 0, r.stderr
    assert r.stdout.split() == []


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of ``tree`` that no ``Name`` reads and ``__all__`` does not list."""
    imported, exported = [], set()
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read | exported]


@pytest.mark.parametrize("name", sorted(p.relative_to(PACKAGE).as_posix() for p in PACKAGE.rglob("*.py")))
def test_no_unused_module_level_import(name):
    assert _unused_imports(ast.parse((PACKAGE / name).read_text(encoding="utf-8"))) == []


def test_unused_import_guard_sees_an_unused_import():
    tree = ast.parse("import math\nimport json\nfrom .a import b, c\n__all__ = ['c']\nprint(math.pi)\n")
    assert _unused_imports(tree) == ["json", "b"]
