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
