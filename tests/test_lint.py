"""Static checks on the package sources: no dead imports, no dead private code."""

import ast
from pathlib import Path

import pytest

import zetagamma

PACKAGE = Path(zetagamma.__file__).parent
# __init__.py imports names only to re-export them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
TREES = {p.name: ast.parse(p.read_text(encoding="utf-8")) for p in MODULES}


def _names_used(tree: ast.AST) -> set[str]:
    # Every identifier a module reads, as a bare name or as an attribute.
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
    return used


def _imported(tree: ast.Module) -> dict[str, int]:
    # Name bound by each import statement -> its line number.
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    return bound


def test_sources_found():
    assert {"cli.py", "series.py", "summation.py", "tables.py"} <= set(TREES)


@pytest.mark.parametrize("module", sorted(TREES))
def test_no_unused_imports(module):
    tree = TREES[module]
    used = _names_used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{module}: unused imports {unused}"


def test_no_unreferenced_private_functions_or_classes():
    # A private name counts as referenced when any module reads it or
    # imports it by name.
    referenced = set()
    for tree in TREES.values():
        referenced |= _names_used(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                referenced.update(alias.name for alias in node.names)
    dead = [f"{module}:{node.lineno} {node.name}"
            for module, tree in TREES.items()
            for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef))
            and node.name.startswith("_") and not node.name.startswith("__")
            and node.name not in referenced]
    assert not dead, f"unreferenced private definitions: {dead}"
