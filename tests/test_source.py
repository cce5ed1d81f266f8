"""Properties of the library source itself."""

import ast
from pathlib import Path

import strongodd

SRC = Path(strongodd.__file__).parent


def test_no_assert_in_library():
    # `assert` vanishes under `python -O`; every guarantee raises instead.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in the library: {found}"


def test_no_unused_import_in_library():
    # An import that no code reads is dead surface.  `__init__.py` imports
    # to re-export, and `__future__` imports switch on language features.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            found += [f"{path.name}:{node.lineno} {alias.asname or alias.name}"
                      for alias in node.names
                      if (alias.asname or alias.name).split(".")[0] not in read]
    assert not found, f"unused imports in the library: {found}"


def test_no_unused_private_name():
    # A module-level private function or class that no code in the library
    # reads is dead code: nothing outside the package should call it.
    trees = {path: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(SRC.rglob("*.py"))}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    found = [f"{path.name}:{node.lineno} {node.name}"
             for path, tree in trees.items() for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))
             and node.name.startswith("_") and not node.name.startswith("__")
             and node.name not in read]
    assert not found, f"unused private names in the library: {found}"
