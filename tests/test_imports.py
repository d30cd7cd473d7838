"""Every module-level import of the package is read by its module.

An import nothing reads costs its load time and misleads a reader about
what the module depends on. ``__init__.py`` imports to re-export, so it is
left out. Standard library ``ast`` only: a name counts as read when the
module's code names it anywhere (``np`` in ``np.zeros`` included).
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "twotier"
MODULES = sorted(path for path in PACKAGE.glob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_the_check_finds_an_unused_import():
    assert unused_imports("import os\nfrom .errors import BudgetError, ConfigError\n"
                          "raise ConfigError(os.sep)\n") == [(2, "BudgetError")]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_no_unused_module_level_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
