"""Every name a module of the package imports is used in it: a name bound
by an import must occur as a Name node somewhere in the module. No module
imports dataclasses, whose import and per-class code generation would
dominate the start-up of a CLI command."""

import ast
from pathlib import Path
from types import ModuleType

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "idag"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - used) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_dataclasses(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
            imported.add(node.module.split(".")[0])
    assert "dataclasses" not in imported


def test_public_names_are_not_modules():
    import idag

    for name in idag.__all__:
        assert not isinstance(getattr(idag, name), ModuleType), name
    assert "annotations" not in idag.__all__
    namespace: dict = {}
    exec("from idag import *", namespace)
    assert {"parse", "evaluate", "Idag"} <= namespace.keys()
    assert not {"models", "terms", "core"} & namespace.keys()
    # the package root imports lazily but still lists and reaches everything
    assert set(idag.__all__) <= set(dir(idag))
    assert idag.sortings.MAX_DOWN_SETS == 10**5
