"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dlstf"
# __init__.py imports the package's public names only to re-export them
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by an import statement of `source` that nothing else in it reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_modules_found():
    assert len(MODULES) >= 8


@pytest.mark.parametrize("module", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_detects_an_unused_import():
    source = "import os\nfrom math import pi, tau\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["pi (line 2)"]
