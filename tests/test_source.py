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
